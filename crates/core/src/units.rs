//! Content-addressed per-component compiled units.
//!
//! A [`crate::CompiledInstance`] is an assembly of [`CompiledUnit`]s — one
//! per potential-conflict component — each carrying exactly the
//! query-independent state of its component: the exhaustively enumerated
//! pool under [`SolverKind::FullEnumeration`], or the compiled max-weight
//! pricing oracle plus its deterministic seed columns (every live link's
//! singleton and a greedy cover, a function of the model alone) under
//! [`SolverKind::ColumnGeneration`].
//!
//! Every unit is stamped with a **content hash** over all compile inputs
//! that can influence its bytes:
//!
//! * the solver kind and the result-relevant enumeration options,
//! * per member link: its id, its alone rates, and its
//!   [`LinkRateModel::link_fingerprint`],
//! * the pairwise couple-conflict table over the members' alone rates (only
//!   for pairwise-exact models, where that table *is* the whole
//!   admissibility structure),
//! * the [`LinkRateModel::model_fingerprint`].
//!
//! Unit compilation is deterministic, so **hash equality implies byte
//! equality**: recompiling a component whose inputs hash identically would
//! reproduce the unit bit-for-bit. That is the invariant behind both reuse
//! paths of `apply_delta` — structural reuse of untouched components
//! (`Arc` sharing, no hashing) and [`UnitCache`] lookups for dirty
//! components that happen to have been compiled before (a node moving back,
//! two epochs sharing a component shape).
//!
//! For the geometric [`awb_net::SinrModel`], member fingerprints (endpoint
//! positions) plus the model fingerprint (the radio) fully determine every
//! in-component admissibility answer — Eq. 3 sums interference over the
//! *members* of an assignment only — so the hash is exact even though it
//! never evaluates joint admissibility. Custom additive models must
//! override the fingerprint hooks (see [`LinkRateModel::link_fingerprint`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::available::{AvailableBandwidthOptions, SolverKind};
use crate::colgen::seed_pool;
use awb_net::{LinkId, LinkRateModel};
use awb_sets::{enumerate_admissible, MaxWeightOracle, RatedSet};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a over `u64` words — the workspace's deterministic,
/// `HashMap`-free hash for content addressing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ContentHasher(u64);

impl ContentHasher {
    pub(crate) fn new(tag: u64) -> ContentHasher {
        let mut h = ContentHasher(FNV_OFFSET);
        h.write(tag);
        h
    }

    pub(crate) fn write(&mut self, value: u64) {
        let mut h = self.0;
        for byte in value.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// The compiled, query-independent state of one potential-conflict
/// component, stamped with the content hash of its compile inputs.
///
/// Units are immutable and shared by `Arc`: an instance produced by
/// `apply_delta` points at the *same* unit allocations as its predecessor
/// for every component the delta did not touch.
#[derive(Debug)]
pub struct CompiledUnit {
    links: Vec<LinkId>,
    content_hash: u64,
    kind: UnitKind,
}

#[derive(Debug)]
pub(crate) enum UnitKind {
    /// Exhaustively enumerated admissible-set pool.
    Enumerated { pool: Vec<RatedSet> },
    /// Compiled pricing oracle plus its deterministic seed pool.
    Colgen {
        oracle: MaxWeightOracle,
        seeds: Vec<RatedSet>,
    },
}

impl CompiledUnit {
    /// The sorted member links of this unit's component.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// The content hash of the unit's compile inputs (see module docs).
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Number of precompiled columns (pool size under enumeration, seed
    /// count under column generation).
    pub fn num_columns(&self) -> usize {
        match &self.kind {
            UnitKind::Enumerated { pool } => pool.len(),
            UnitKind::Colgen { seeds, .. } => seeds.len(),
        }
    }

    pub(crate) fn kind(&self) -> &UnitKind {
        &self.kind
    }

    /// The exhaustive pool of an enumerated unit. Only called on instances
    /// compiled under [`SolverKind::FullEnumeration`].
    pub(crate) fn enumerated_pool(&self) -> &[RatedSet] {
        match &self.kind {
            UnitKind::Enumerated { pool } => pool,
            UnitKind::Colgen { .. } => {
                // awb-audit: allow(no-panic-in-lib) — unit kind always matches the solver kind
                unreachable!("solver kind and unit kind are compiled together")
            }
        }
    }

    /// Compiles the unit for `component` under `model`, hashing the inputs
    /// first so the caller can consult a [`UnitCache`] beforehand via
    /// [`unit_content_hash`].
    pub(crate) fn compile<M: LinkRateModel>(
        model: &M,
        component: &[LinkId],
        options: &AvailableBandwidthOptions,
    ) -> CompiledUnit {
        let content_hash = unit_content_hash(model, component, options);
        let kind = match options.solver {
            SolverKind::FullEnumeration => UnitKind::Enumerated {
                pool: enumerate_admissible(model, component, &options.enumeration),
            },
            SolverKind::ColumnGeneration => {
                let oracle = MaxWeightOracle::new(model, component);
                let seeds = seed_pool(model, &oracle);
                UnitKind::Colgen { oracle, seeds }
            }
        };
        CompiledUnit {
            links: component.to_vec(),
            content_hash,
            kind,
        }
    }
}

/// The content hash of the unit that [`CompiledUnit::compile`] would produce
/// for these inputs — computable *without* compiling, which is what makes
/// cache-before-compile lookups cheap for dirty components.
pub(crate) fn unit_content_hash<M: LinkRateModel>(
    model: &M,
    component: &[LinkId],
    options: &AvailableBandwidthOptions,
) -> u64 {
    let mut h = ContentHasher::new(match options.solver {
        SolverKind::FullEnumeration => 1,
        SolverKind::ColumnGeneration => 2,
    });
    if options.solver == SolverKind::FullEnumeration {
        // `engine` is excluded: every engine produces byte-identical pools.
        h.write(u64::from(options.enumeration.prune_dominated));
        h.write(
            options
                .enumeration
                .max_set_size
                .map_or(u64::MAX, |s| s as u64),
        );
    }
    h.write(model.model_fingerprint());
    let pairwise_exact = model.pairwise_admissibility_exact();
    h.write(u64::from(pairwise_exact));
    let rates: Vec<Vec<awb_phy::Rate>> = component.iter().map(|&l| model.alone_rates(l)).collect();
    for (&link, alone) in component.iter().zip(&rates) {
        h.write(link.index() as u64);
        h.write(model.link_fingerprint(link));
        h.write(alone.len() as u64);
        for r in alone {
            h.write(r.as_mbps().to_bits());
        }
    }
    if pairwise_exact {
        // For pairwise-exact models the couple-conflict table over the
        // members' alone rates is the entire admissibility structure; for
        // additive models the fingerprints above already pin the geometry
        // and evaluating O(k²·R²) conflicts here would be pure waste.
        let mut bits = 0u64;
        let mut filled = 0u32;
        for i in 0..component.len() {
            for j in (i + 1)..component.len() {
                for &ra in &rates[i] {
                    for &rb in &rates[j] {
                        let c = model.conflicts((component[i], ra), (component[j], rb));
                        bits = (bits << 1) | u64::from(c);
                        filled += 1;
                        if filled == 64 {
                            h.write(bits);
                            bits = 0;
                            filled = 0;
                        }
                    }
                }
            }
        }
        if filled > 0 {
            h.write(bits);
            h.write(u64::from(filled));
        }
    }
    h.finish()
}

/// Counters describing one `apply_delta` (accumulated across instances by
/// [`crate::Session::apply_delta`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReuse {
    /// Components reused structurally (`Arc` shared, never rehashed):
    /// membership unchanged and no member link touched by the delta.
    pub units_reused: usize,
    /// Dirty components rebuilt from a [`UnitCache`] hit — the compile was
    /// skipped because an identically-hashed unit already existed.
    pub unit_cache_hits: usize,
    /// Dirty components compiled from scratch.
    pub units_compiled: usize,
    /// Links of the instance's universe the delta touched.
    pub dirty_links: usize,
    /// Instances that fell back to a full fresh compile (universe membership
    /// changed, or the instance was compiled without decomposition and got
    /// dirtied).
    pub full_recompiles: usize,
}

impl DeltaReuse {
    /// Accumulates another instance's counters into `self`.
    pub fn absorb(&mut self, other: DeltaReuse) {
        self.units_reused += other.units_reused;
        self.unit_cache_hits += other.unit_cache_hits;
        self.units_compiled += other.units_compiled;
        self.dirty_links += other.dirty_links;
        self.full_recompiles += other.full_recompiles;
    }
}

/// A content-addressed store of compiled units, shared across the instances
/// of a [`crate::Session`] (or a service engine's topology chain).
///
/// Entries are keyed by [`CompiledUnit::content_hash`]; because hash
/// equality implies byte equality (deterministic compilation over hashed
/// inputs), a hit is always safe to substitute for a fresh compile. Each
/// entry remembers the last epoch it was touched; [`UnitCache::end_epoch`]
/// advances the clock and prunes entries idle longer than the retention
/// window, so a long-lived session under churn does not accumulate units
/// for geometries that will never recur.
#[derive(Debug)]
pub struct UnitCache {
    entries: BTreeMap<u64, (Arc<CompiledUnit>, u64)>,
    epoch: u64,
    retention: u64,
}

impl Default for UnitCache {
    fn default() -> Self {
        UnitCache::new(DEFAULT_RETENTION_EPOCHS)
    }
}

/// Default [`UnitCache`] retention: entries untouched for this many epochs
/// are pruned at the next [`UnitCache::end_epoch`].
pub const DEFAULT_RETENTION_EPOCHS: u64 = 8;

impl UnitCache {
    /// Creates an empty cache that keeps entries for `retention` epochs
    /// after their last use (`0` keeps entries only within their insertion
    /// epoch).
    pub fn new(retention: u64) -> UnitCache {
        UnitCache {
            entries: BTreeMap::new(),
            epoch: 0,
            retention,
        }
    }

    /// Number of cached units.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The unit with this content hash, if cached; refreshes its epoch.
    pub fn lookup(&mut self, content_hash: u64) -> Option<Arc<CompiledUnit>> {
        let (unit, touched) = self.entries.get_mut(&content_hash)?;
        *touched = self.epoch;
        Some(Arc::clone(unit))
    }

    /// Inserts (or refreshes) a unit under its own content hash.
    pub fn publish(&mut self, unit: &Arc<CompiledUnit>) {
        self.entries
            .insert(unit.content_hash(), (Arc::clone(unit), self.epoch));
    }

    /// Advances the epoch clock and prunes entries whose last use is older
    /// than the retention window.
    pub fn end_epoch(&mut self) {
        self.epoch += 1;
        let horizon = self.epoch.saturating_sub(self.retention);
        self.entries.retain(|_, (_, touched)| *touched >= horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awb_net::{DeclarativeModel, SinrModel, Topology};
    use awb_phy::{Phy, Rate};

    fn r(m: f64) -> Rate {
        Rate::from_mbps(m)
    }

    fn pair_model(conflict: bool) -> (DeclarativeModel, Vec<LinkId>) {
        let mut t = Topology::new();
        let mut links = Vec::new();
        for i in 0..2 {
            let a = t.add_node(f64::from(i) * 10.0, 0.0);
            let b = t.add_node(f64::from(i) * 10.0 + 5.0, 0.0);
            links.push(t.add_link(a, b).unwrap());
        }
        let mut b = DeclarativeModel::builder(t);
        for &l in &links {
            b = b.alone_rates(l, &[r(54.0), r(36.0)]);
        }
        if conflict {
            b = b.conflict_all(links[0], links[1]);
        }
        (b.build(), links)
    }

    #[test]
    fn hash_is_stable_and_sensitive_to_conflicts() {
        let opts = AvailableBandwidthOptions::default();
        let (m1, links) = pair_model(false);
        let (m2, _) = pair_model(false);
        assert_eq!(
            unit_content_hash(&m1, &links, &opts),
            unit_content_hash(&m2, &links, &opts)
        );
        let (m3, _) = pair_model(true);
        assert_ne!(
            unit_content_hash(&m1, &links, &opts),
            unit_content_hash(&m3, &links, &opts)
        );
    }

    #[test]
    fn hash_sees_solver_and_member_identity() {
        let (m, links) = pair_model(true);
        let enum_opts = AvailableBandwidthOptions::default();
        let cg_opts = AvailableBandwidthOptions {
            solver: SolverKind::ColumnGeneration,
            ..AvailableBandwidthOptions::default()
        };
        assert_ne!(
            unit_content_hash(&m, &links, &enum_opts),
            unit_content_hash(&m, &links, &cg_opts)
        );
        assert_ne!(
            unit_content_hash(&m, &links, &enum_opts),
            unit_content_hash(&m, &links[..1], &enum_opts)
        );
    }

    #[test]
    fn sinr_hash_tracks_geometry_not_structure_only() {
        let build = |gap: f64| {
            let mut t = Topology::new();
            let a = t.add_node(0.0, 0.0);
            let b = t.add_node(50.0, 0.0);
            let c = t.add_node(0.0, gap);
            let d = t.add_node(50.0, gap);
            let l1 = t.add_link(a, b).unwrap();
            let l2 = t.add_link(c, d).unwrap();
            (SinrModel::new(t, Phy::paper_default()), vec![l1, l2])
        };
        let opts = AvailableBandwidthOptions::default();
        let (m1, links) = build(120.0);
        let (m2, _) = build(120.0);
        let (m3, _) = build(130.0);
        assert_eq!(
            unit_content_hash(&m1, &links, &opts),
            unit_content_hash(&m2, &links, &opts)
        );
        // Both gaps have identical alone rates, but the geometry (and hence
        // the additive interference) differs — the fingerprint must see it.
        assert_ne!(
            unit_content_hash(&m1, &links, &opts),
            unit_content_hash(&m3, &links, &opts)
        );
    }

    #[test]
    fn cache_hits_refresh_and_pruning_expires() {
        let (m, links) = pair_model(true);
        let opts = AvailableBandwidthOptions::default();
        let unit = Arc::new(CompiledUnit::compile(&m, &links, &opts));
        let mut cache = UnitCache::new(1);
        cache.publish(&unit);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(unit.content_hash()).is_some());
        cache.end_epoch();
        // Still within retention: a lookup refreshes the entry.
        assert!(cache.lookup(unit.content_hash()).is_some());
        cache.end_epoch();
        cache.end_epoch();
        // Two idle epochs with retention 1: pruned.
        assert!(cache.lookup(unit.content_hash()).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn compiled_unit_carries_its_hash_and_columns() {
        let (m, links) = pair_model(true);
        let opts = AvailableBandwidthOptions::default();
        let unit = CompiledUnit::compile(&m, &links, &opts);
        assert_eq!(unit.links(), &links[..]);
        assert_eq!(unit.content_hash(), unit_content_hash(&m, &links, &opts));
        assert!(unit.num_columns() > 0);
    }
}

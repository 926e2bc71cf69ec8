//! Compiled query sessions: the two-phase split between **topology
//! compilation** and **per-query solving** for the Eq. 6 LP.
//!
//! Every Eq. 6 query works over a *link universe* (the union of the
//! background paths' links and the new path's links). For a fixed model and
//! universe, a large part of the solve is query-independent: the conflict
//! structure, the enumerated independent-set pool (under
//! [`SolverKind::FullEnumeration`]), the compiled-bitmask pricing oracle and
//! its deterministic seed pool (under [`SolverKind::ColumnGeneration`]), and
//! the potential-conflict component split. [`CompiledInstance`] captures
//! exactly that state — as an assembly of independently content-hashed
//! per-component [`CompiledUnit`]s — built once; [`Session`] caches
//! instances per universe and answers many `(background, path)` queries
//! against them, reusing scratch buffers for the universe and demand vectors
//! so the warm query path performs no recompilation.
//!
//! # Determinism
//!
//! A [`CompiledInstance`] is a pure function of `(model, universe, options)`
//! — it carries **no** state that evolves across queries. In particular the
//! column-generation seed pool is the deterministic
//! singleton-plus-greedy-cover seed, *not* the converged pool of earlier
//! queries: carrying converged columns forward would make low-order float
//! bits depend on query order. Consequently every session answer is
//! bit-for-bit identical to a fresh one-shot solve of the same query, the
//! free functions [`crate::available_bandwidth`] and
//! [`crate::available_bandwidth_colgen`] are thin wrappers over a one-shot
//! session or instance, and a warm session replaying queries in any order
//! reproduces the cold answers exactly (see `tests/proptest_session.rs`).
//! Both solver kinds end in the same Eq. 6 master LP: the enumeration arm
//! solves it once over the units' pools, the colgen arm prices columns into
//! it from the units' seed pools.
//!
//! # Dynamic topologies
//!
//! When the topology changes — nodes move, join, leave; link rates shift —
//! [`CompiledInstance::apply_delta`] rebuilds only the components a
//! [`TopologyDelta`] actually touched. Untouched components are reused
//! *structurally*: the new instance points at the same `Arc`'d units, no
//! rehash, no recompile. Dirty components are content-hashed first and
//! looked up in a [`UnitCache`] (a node oscillating between two positions
//! hits the cache), and only genuine cache misses re-enumerate or
//! re-compile oracles. Because unit compilation is a deterministic pure
//! function of the hashed inputs, the incremental instance is **bit-for-bit
//! identical** to a fresh [`CompiledInstance::compile`] against the new
//! model (see `tests/proptest_delta.rs`). The reuse leans on the delta
//! honesty contract spelled out on [`TopologyDelta`]: an under-reported
//! delta leaves stale compiled state behind.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::available::{
    demand_into, link_universe_into, solve_pools, AvailableBandwidth, AvailableBandwidthOptions,
    SolverKind,
};
use crate::colgen::{solve_with_pools, ColgenOutcome, PricingTuning};
use crate::decomposition::{components_from_adjacency, potential_conflict_adjacency};
use crate::error::CoreError;
use crate::flow::Flow;
use crate::units::{unit_content_hash, CompiledUnit, DeltaReuse, UnitCache, UnitKind};
use awb_net::{LinkId, LinkRateModel, Path, TopologyDelta};
use awb_sets::RatedSet;

/// The query-independent, precompiled state for Eq. 6 solves over one
/// `(model, universe, options)` triple: an assembly of per-component
/// [`CompiledUnit`]s.
///
/// Under [`SolverKind::FullEnumeration`] each unit holds its component's
/// exhaustive independent-set pool; under [`SolverKind::ColumnGeneration`]
/// its compiled max-weight pricing oracle plus the deterministic seed pool.
/// Both honor `options.decompose` by splitting the universe into
/// potential-conflict components first (without decomposition the instance
/// is a single whole-universe unit).
///
/// Instances are immutable once compiled: [`CompiledInstance::query`] takes
/// `&self`, so a single instance can serve concurrent queries (the service
/// layer shares instances behind `Arc`). Units are shared by `Arc` too,
/// which is what lets [`CompiledInstance::apply_delta`] produce a successor
/// instance that aliases every component the delta did not touch.
#[derive(Debug, Clone)]
pub struct CompiledInstance {
    universe: Vec<LinkId>,
    components: Vec<Vec<LinkId>>,
    units: Vec<Arc<CompiledUnit>>,
    /// Potential-conflict adjacency over `universe` (bitset rows), stored
    /// only when compiled with `options.decompose` — the splice target for
    /// incremental delta application. `None` otherwise, so the
    /// `decompose: false` default pays nothing for it.
    adjacency: Option<Vec<Vec<u64>>>,
    options: AvailableBandwidthOptions,
}

impl CompiledInstance {
    /// Compiles the query-independent state for `universe` under `model`,
    /// honoring `options.solver`, `options.decompose`, and
    /// `options.enumeration`. The universe is sorted and deduplicated; it
    /// must cover every link later queries mention.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyUniverse`] when `universe` is empty.
    pub fn compile<M: LinkRateModel>(
        model: &M,
        universe: &[LinkId],
        options: &AvailableBandwidthOptions,
    ) -> Result<CompiledInstance, CoreError> {
        Self::assemble(model, universe, options, None).map(|(instance, _)| instance)
    }

    /// [`CompiledInstance::compile`] consulting (and feeding) a
    /// content-addressed [`UnitCache`]: components whose compile-input hash
    /// is already cached reuse the cached unit instead of recompiling.
    /// Returns the reuse counters alongside the instance.
    ///
    /// # Errors
    ///
    /// As [`CompiledInstance::compile`].
    pub fn compile_with_cache<M: LinkRateModel>(
        model: &M,
        universe: &[LinkId],
        options: &AvailableBandwidthOptions,
        cache: &mut UnitCache,
    ) -> Result<(CompiledInstance, DeltaReuse), CoreError> {
        Self::assemble(model, universe, options, Some(cache))
    }

    fn normalized_universe(universe: &[LinkId]) -> Result<Vec<LinkId>, CoreError> {
        let mut universe = universe.to_vec();
        universe.sort_unstable();
        universe.dedup();
        if universe.is_empty() {
            return Err(CoreError::EmptyUniverse);
        }
        Ok(universe)
    }

    /// The one compile path: normalize, split, then per component either
    /// pull an identically-hashed unit out of `cache` or compile it.
    fn assemble<M: LinkRateModel>(
        model: &M,
        universe: &[LinkId],
        options: &AvailableBandwidthOptions,
        cache: Option<&mut UnitCache>,
    ) -> Result<(CompiledInstance, DeltaReuse), CoreError> {
        let universe = Self::normalized_universe(universe)?;
        let (adjacency, components) = if options.decompose {
            let adjacency = potential_conflict_adjacency(model, &universe);
            let components = components_from_adjacency(&universe, &adjacency);
            (Some(adjacency), components)
        } else {
            (None, vec![universe.clone()])
        };
        let mut reuse = DeltaReuse::default();
        let units = Self::units_for_components(model, &components, options, cache, &mut reuse);
        Ok((
            CompiledInstance {
                universe,
                components,
                units,
                adjacency,
                options: *options,
            },
            reuse,
        ))
    }

    fn units_for_components<M: LinkRateModel>(
        model: &M,
        components: &[Vec<LinkId>],
        options: &AvailableBandwidthOptions,
        mut cache: Option<&mut UnitCache>,
        reuse: &mut DeltaReuse,
    ) -> Vec<Arc<CompiledUnit>> {
        components
            .iter()
            .map(|component| {
                if let Some(cache) = cache.as_deref_mut() {
                    let hash = unit_content_hash(model, component, options);
                    if let Some(unit) = cache.lookup(hash) {
                        reuse.unit_cache_hits += 1;
                        return unit;
                    }
                    let unit = Arc::new(CompiledUnit::compile(model, component, options));
                    reuse.units_compiled += 1;
                    cache.publish(&unit);
                    unit
                } else {
                    reuse.units_compiled += 1;
                    Arc::new(CompiledUnit::compile(model, component, options))
                }
            })
            .collect()
    }

    /// The sorted, deduplicated link universe this instance was compiled
    /// for.
    pub fn universe(&self) -> &[LinkId] {
        &self.universe
    }

    /// The potential-conflict components this instance is split into (a
    /// single whole-universe component unless compiled with
    /// `options.decompose`).
    pub fn components(&self) -> &[Vec<LinkId>] {
        &self.components
    }

    /// The per-component compiled units, parallel to
    /// [`Self::components`]. Exposed so callers can observe structural
    /// sharing (`Arc::ptr_eq`) across delta applications and publish units
    /// into a shared [`UnitCache`].
    pub fn units(&self) -> &[Arc<CompiledUnit>] {
        &self.units
    }

    /// The options this instance was compiled under.
    pub fn options(&self) -> &AvailableBandwidthOptions {
        &self.options
    }

    /// Number of precompiled columns: the full pool size under enumeration,
    /// the seed-pool size under column generation.
    pub fn num_columns(&self) -> usize {
        self.units.iter().map(|u| u.num_columns()).sum()
    }

    /// Rebuilds this instance against `model` (the post-delta model),
    /// recompiling **only** the components `delta` touched and structurally
    /// reusing the rest — see the module docs for the reuse ladder and the
    /// bit-identity guarantee.
    ///
    /// The instance's universe must survive the delta (no universe link in
    /// `delta.removed_links`); membership is otherwise unchanged — links
    /// that fell out of range simply compile to empty alone-rate sets.
    /// Instances compiled without `options.decompose` have no component
    /// structure to exploit and fall back to a full (cache-assisted)
    /// recompile when dirtied.
    ///
    /// # Errors
    ///
    /// [`CoreError::Invariant`] when `delta` removes a link of this
    /// instance's universe — such an instance cannot be expressed under the
    /// new model and should be dropped by the caller.
    // awb-audit: hot
    pub fn apply_delta<M: LinkRateModel>(
        &self,
        model: &M,
        delta: &TopologyDelta,
        cache: &mut UnitCache,
    ) -> Result<(CompiledInstance, DeltaReuse), CoreError> {
        if delta
            .removed_links
            .iter()
            .any(|l| self.universe.binary_search(l).is_ok())
        {
            return Err(CoreError::Invariant(
                "delta keeps every universe link alive",
            ));
        }
        let touched = delta.touched_links(model.topology());
        let dirty: Vec<usize> = touched
            .iter()
            .filter_map(|l| self.universe.binary_search(l).ok())
            .collect();
        let mut reuse = DeltaReuse {
            dirty_links: dirty.len(),
            ..DeltaReuse::default()
        };
        if dirty.is_empty() {
            // Nothing in this universe moved: the instance is already the
            // fresh compile, bit-for-bit.
            reuse.units_reused = self.units.len();
            return Ok((self.clone(), reuse));
        }
        let Some(old_adjacency) = self.adjacency.as_ref() else {
            // No stored component structure (decompose: false) — recompile
            // whole, still letting the cache dedupe the single unit.
            let (instance, mut inner) =
                Self::assemble(model, &self.universe, &self.options, Some(cache))?;
            inner.dirty_links = reuse.dirty_links;
            inner.full_recompiles = 1;
            return Ok((instance, inner));
        };

        // Splice: keep clean-pair bits, recompute every pair involving a
        // dirty link under the new model.
        let n = self.universe.len();
        let mut adjacency = old_adjacency.clone();
        let mut is_dirty = vec![false; n];
        for &i in &dirty {
            is_dirty[i] = true;
        }
        for &i in &dirty {
            for word in &mut adjacency[i] {
                *word = 0;
            }
        }
        for (j, row) in adjacency.iter_mut().enumerate() {
            if !is_dirty[j] {
                for &i in &dirty {
                    row[i / 64] &= !(1 << (i % 64));
                }
            }
        }
        let rates: Vec<Vec<awb_phy::Rate>> = self
            .universe
            .iter()
            .map(|&l| model.alone_rates(l))
            .collect();
        for &i in &dirty {
            for j in 0..n {
                if j == i || (is_dirty[j] && j < i) {
                    continue; // dirty-dirty pairs recompute once, as (i, j>i)
                }
                let conflicting = rates[i].iter().any(|&ra| {
                    rates[j]
                        .iter()
                        .any(|&rb| model.conflicts((self.universe[i], ra), (self.universe[j], rb)))
                });
                if conflicting {
                    adjacency[i][j / 64] |= 1 << (j % 64);
                    adjacency[j][i / 64] |= 1 << (i % 64);
                }
            }
        }
        let components = components_from_adjacency(&self.universe, &adjacency);

        // Reuse ladder per new component: structurally clean (same
        // membership as an old component, no dirty member) → alias the old
        // Arc without rehashing; otherwise hash → cache → compile.
        let old_by_first: BTreeMap<LinkId, usize> = self
            .components
            .iter()
            .enumerate()
            .map(|(i, c)| (c[0], i))
            .collect();
        let units: Vec<Arc<CompiledUnit>> = components
            .iter()
            .map(|component| {
                let clean = component
                    .iter()
                    .all(|l| !is_dirty[self.universe.binary_search(l).unwrap_or(n)]);
                if clean {
                    if let Some(&oi) = old_by_first.get(&component[0]) {
                        if self.components[oi] == *component {
                            reuse.units_reused += 1;
                            return Arc::clone(&self.units[oi]);
                        }
                    }
                }
                let hash = unit_content_hash(model, component, &self.options);
                if let Some(unit) = cache.lookup(hash) {
                    reuse.unit_cache_hits += 1;
                    return unit;
                }
                let unit = Arc::new(CompiledUnit::compile(model, component, &self.options));
                reuse.units_compiled += 1;
                cache.publish(&unit);
                unit
            })
            .collect();
        Ok((
            CompiledInstance {
                universe: self.universe.clone(),
                components,
                units,
                adjacency: Some(adjacency),
                options: self.options,
            },
            reuse,
        ))
    }

    /// Answers one Eq. 6 query against the compiled state. Every link of
    /// `background` and `new_path` must lie inside [`Self::universe`];
    /// results are bit-for-bit identical to
    /// [`crate::available_bandwidth`] called with the options this instance
    /// was compiled under, provided the universe matches
    /// [`crate::link_universe`] of the query.
    ///
    /// # Errors
    ///
    /// As [`crate::available_bandwidth`], plus
    /// [`CoreError::Invariant`] when a query link lies outside the compiled
    /// universe.
    pub fn query<M: LinkRateModel>(
        &self,
        model: &M,
        background: &[Flow],
        new_path: &Path,
    ) -> Result<AvailableBandwidth, CoreError> {
        let mut demand = Vec::new();
        self.query_with_scratch(model, background, new_path, &mut demand)
    }

    /// [`Self::query`] with a caller-owned demand buffer — the form
    /// [`Session`] uses so warm queries allocate nothing for the demand
    /// vector.
    pub(crate) fn query_with_scratch<M: LinkRateModel>(
        &self,
        model: &M,
        background: &[Flow],
        new_path: &Path,
        demand: &mut Vec<f64>,
    ) -> Result<AvailableBandwidth, CoreError> {
        self.check_covers(new_path)?;
        demand_into(&self.universe, background, demand)?;
        match self.options.solver {
            SolverKind::FullEnumeration => {
                let pools: Vec<&[RatedSet]> =
                    self.units.iter().map(|u| u.enumerated_pool()).collect();
                solve_pools(
                    &pools,
                    &self.components,
                    &self.universe,
                    demand,
                    new_path,
                    self.options.dust_epsilon,
                )
            }
            SolverKind::ColumnGeneration => self
                .solve_colgen(model, demand, new_path)
                .map(|outcome| outcome.result),
        }
    }

    /// Like [`Self::query`], but returns the full [`ColgenOutcome`]
    /// (the answer and the pricing counters). Only valid on instances
    /// compiled with [`SolverKind::ColumnGeneration`].
    ///
    /// # Errors
    ///
    /// As [`Self::query`]; [`CoreError::Invariant`] on an enumeration
    /// instance.
    pub fn query_colgen<M: LinkRateModel>(
        &self,
        model: &M,
        background: &[Flow],
        new_path: &Path,
    ) -> Result<ColgenOutcome, CoreError> {
        self.check_covers(new_path)?;
        if self.options.solver != SolverKind::ColumnGeneration {
            return Err(CoreError::Invariant(
                "colgen query requires a column-generation instance",
            ));
        }
        let mut demand = Vec::new();
        demand_into(&self.universe, background, &mut demand)?;
        self.solve_colgen(model, &demand, new_path)
    }

    /// The column-generation solve over this instance's per-unit oracles,
    /// starting from clones of their seed pools. Only called on
    /// column-generation instances.
    fn solve_colgen<M: LinkRateModel>(
        &self,
        model: &M,
        demand: &[f64],
        new_path: &Path,
    ) -> Result<ColgenOutcome, CoreError> {
        let (oracles, seeds) = self
            .units
            .iter()
            .map(|u| match u.kind() {
                UnitKind::Colgen { oracle, seeds } => (oracle, seeds.clone()),
                UnitKind::Enumerated { .. } => {
                    // awb-audit: allow(no-panic-in-lib) — unit kind always matches the solver kind
                    unreachable!("solver kind and unit kind are compiled together")
                }
            })
            .unzip::<_, _, Vec<_>, Vec<_>>();
        solve_with_pools(
            model,
            &self.universe,
            &self.components,
            &oracles,
            seeds,
            demand,
            new_path,
            self.options.dust_epsilon,
            &PricingTuning::from_options(&self.options),
        )
    }

    /// Background links are validated by the demand vector's binary search;
    /// path links need an explicit check because a missing path link would
    /// otherwise silently drop its delivery constraint.
    fn check_covers(&self, new_path: &Path) -> Result<(), CoreError> {
        for link in new_path.links() {
            self.universe
                .binary_search(link)
                .map_err(|_| CoreError::Invariant("compiled universe covers the query path"))?;
        }
        Ok(())
    }
}

/// Counters describing a [`Session`]'s cache and delta behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries that had to compile a new [`CompiledInstance`] (cold).
    pub compiles: usize,
    /// Queries answered by an already-compiled instance (warm).
    pub warm_queries: usize,
    /// [`Session::apply_delta`] calls so far.
    pub delta_applications: usize,
    /// Accumulated per-component reuse counters across all delta
    /// applications.
    pub delta_reuse: DeltaReuse,
}

/// A query session over one model: caches a [`CompiledInstance`] per link
/// universe and answers `(background, path)` queries through them.
///
/// Each query derives its universe exactly like
/// [`crate::available_bandwidth`] does (via [`crate::link_universe`]), so
/// answers are bit-for-bit identical to one-shot solves; what the session
/// saves is the per-universe compilation — set enumeration, oracle bitmask
/// compilation, seed-pool construction — plus the universe/demand buffer
/// allocations, which are scratch space owned by the session and reused
/// across queries.
///
/// Typical use: routing admission evaluates many candidate paths against an
/// evolving background through one session; repeated universes (the common
/// case when candidates share links) hit the cache. Under mobility,
/// [`Session::apply_delta`] migrates every cached instance to the next
/// topology epoch, recompiling only the touched components.
#[derive(Debug)]
pub struct Session<'m, M: LinkRateModel> {
    model: &'m M,
    options: AvailableBandwidthOptions,
    instances: BTreeMap<Vec<LinkId>, CompiledInstance>,
    unit_cache: UnitCache,
    universe_scratch: Vec<LinkId>,
    demand_scratch: Vec<f64>,
    stats: SessionStats,
}

impl<'m, M: LinkRateModel> Session<'m, M> {
    /// Creates an empty session over `model`; instances compile lazily on
    /// first use of each universe.
    pub fn new(model: &'m M, options: AvailableBandwidthOptions) -> Session<'m, M> {
        Session {
            model,
            options,
            instances: BTreeMap::new(),
            unit_cache: UnitCache::default(),
            universe_scratch: Vec::new(),
            demand_scratch: Vec::new(),
            stats: SessionStats::default(),
        }
    }

    /// The model this session solves against.
    pub fn model(&self) -> &'m M {
        self.model
    }

    /// The options every instance of this session compiles under.
    pub fn options(&self) -> &AvailableBandwidthOptions {
        &self.options
    }

    /// Cache counters so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Number of distinct universes compiled so far.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Migrates the session to `model` — the post-delta topology —
    /// rebuilding every cached instance through
    /// [`CompiledInstance::apply_delta`] and returning the accumulated
    /// reuse counters. Instances whose universe `delta` removed a link from
    /// are dropped (they cannot exist under the new model; a later query
    /// over a surviving universe recompiles as usual).
    ///
    /// The session's unit cache persists across epochs, so components that
    /// reappear (a node moving back, periodic mobility) rebuild without
    /// compiling.
    // awb-audit: hot
    pub fn apply_delta(&mut self, model: &'m M, delta: &TopologyDelta) -> DeltaReuse {
        let mut total = DeltaReuse::default();
        let old = std::mem::take(&mut self.instances);
        for (universe, instance) in old {
            match instance.apply_delta(model, delta, &mut self.unit_cache) {
                Ok((next, reuse)) => {
                    total.absorb(reuse);
                    self.instances.insert(universe, next);
                }
                Err(_) => {
                    // Universe lost a link to the delta: unrepresentable
                    // under the new model, drop it.
                    total.full_recompiles += 1;
                }
            }
        }
        self.model = model;
        self.unit_cache.end_epoch();
        self.stats.delta_applications += 1;
        self.stats.delta_reuse.absorb(total);
        total
    }

    /// Answers one Eq. 6 query, compiling and caching the universe's
    /// instance on first sight. Bit-for-bit identical to
    /// [`crate::available_bandwidth`] with the session's options.
    ///
    /// # Errors
    ///
    /// As [`crate::available_bandwidth`].
    pub fn query(
        &mut self,
        background: &[Flow],
        new_path: &Path,
    ) -> Result<AvailableBandwidth, CoreError> {
        link_universe_into(background, new_path, &mut self.universe_scratch);
        if self.universe_scratch.is_empty() {
            return Err(CoreError::EmptyUniverse);
        }
        let instance = match self.instances.get(self.universe_scratch.as_slice()) {
            Some(instance) => {
                self.stats.warm_queries += 1;
                instance
            }
            None => {
                let (compiled, _) = CompiledInstance::compile_with_cache(
                    self.model,
                    &self.universe_scratch,
                    &self.options,
                    &mut self.unit_cache,
                )?;
                self.stats.compiles += 1;
                self.instances
                    .entry(self.universe_scratch.clone())
                    .or_insert(compiled)
            }
        };
        instance.query_with_scratch(self.model, background, new_path, &mut self.demand_scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::available::{available_bandwidth, link_universe};
    use awb_net::{DeclarativeModel, Topology};
    use awb_phy::Rate;

    fn r(m: f64) -> Rate {
        Rate::from_mbps(m)
    }

    /// `n` disjoint links in a row; conflicts as declared.
    fn line_model(
        n: usize,
        rates: &[Rate],
        conflicts: &[(usize, usize)],
    ) -> (DeclarativeModel, Vec<LinkId>) {
        let mut t = Topology::new();
        let mut links = Vec::new();
        for i in 0..n {
            let a = t.add_node(i as f64 * 10.0, 0.0);
            let b = t.add_node(i as f64 * 10.0 + 5.0, 0.0);
            links.push(t.add_link(a, b).unwrap());
        }
        let mut b = DeclarativeModel::builder(t);
        for &l in &links {
            b = b.alone_rates(l, rates);
        }
        for &(i, j) in conflicts {
            b = b.conflict_all(links[i], links[j]);
        }
        (b.build(), links)
    }

    #[test]
    fn warm_queries_match_one_shot_solves_bitwise() {
        let (m, links) = line_model(3, &[r(54.0), r(18.0)], &[(0, 1), (1, 2)]);
        let bg_path = Path::new(m.topology(), vec![links[0]]).unwrap();
        let new_path = Path::new(m.topology(), vec![links[1]]).unwrap();
        for solver in [SolverKind::FullEnumeration, SolverKind::ColumnGeneration] {
            let options = AvailableBandwidthOptions {
                solver,
                ..AvailableBandwidthOptions::default()
            };
            let mut session = Session::new(&m, options);
            for bg in [0.0, 10.0, 27.0, 10.0, 0.0] {
                let background = vec![Flow::new(bg_path.clone(), bg).unwrap()];
                let warm = session.query(&background, &new_path).unwrap();
                let cold = available_bandwidth(&m, &background, &new_path, &options).unwrap();
                assert_eq!(
                    warm.bandwidth_mbps().to_bits(),
                    cold.bandwidth_mbps().to_bits(),
                    "solver {solver:?}, bg {bg}"
                );
                assert_eq!(warm, cold);
            }
            // Five queries over one universe: one compile, four warm hits.
            assert_eq!(session.stats().compiles, 1);
            assert_eq!(session.stats().warm_queries, 4);
            assert_eq!(session.instance_count(), 1);
        }
    }

    #[test]
    fn distinct_universes_get_distinct_instances() {
        let (m, links) = line_model(3, &[r(54.0)], &[(0, 1)]);
        let p0 = Path::new(m.topology(), vec![links[0]]).unwrap();
        let p2 = Path::new(m.topology(), vec![links[2]]).unwrap();
        let mut session = Session::new(&m, AvailableBandwidthOptions::default());
        session.query(&[], &p0).unwrap();
        session.query(&[], &p2).unwrap();
        session.query(&[], &p0).unwrap();
        assert_eq!(session.stats().compiles, 2);
        assert_eq!(session.stats().warm_queries, 1);
    }

    #[test]
    fn instance_rejects_queries_outside_its_universe() {
        let (m, links) = line_model(2, &[r(54.0)], &[]);
        let p0 = Path::new(m.topology(), vec![links[0]]).unwrap();
        let p1 = Path::new(m.topology(), vec![links[1]]).unwrap();
        let universe = link_universe(&[], &p0);
        let instance =
            CompiledInstance::compile(&m, &universe, &AvailableBandwidthOptions::default())
                .unwrap();
        assert_eq!(instance.universe(), &universe[..]);
        assert!(instance.query(&m, &[], &p1).is_err());
    }

    #[test]
    fn decomposed_instances_answer_like_the_free_function() {
        let (m, links) = line_model(3, &[r(54.0)], &[(0, 1)]);
        let bg_path = Path::new(m.topology(), vec![links[2]]).unwrap();
        let new_path = Path::new(m.topology(), vec![links[0]]).unwrap();
        let background = vec![Flow::new(bg_path, 20.0).unwrap()];
        for solver in [SolverKind::FullEnumeration, SolverKind::ColumnGeneration] {
            let options = AvailableBandwidthOptions {
                decompose: true,
                solver,
                ..AvailableBandwidthOptions::default()
            };
            let mut session = Session::new(&m, options);
            let warm = session.query(&background, &new_path).unwrap();
            let again = session.query(&background, &new_path).unwrap();
            let cold = available_bandwidth(&m, &background, &new_path, &options).unwrap();
            assert_eq!(warm, cold);
            assert_eq!(again, cold);
        }
    }

    #[test]
    fn colgen_query_on_enumeration_instance_is_an_error() {
        let (m, links) = line_model(1, &[r(54.0)], &[]);
        let p = Path::new(m.topology(), vec![links[0]]).unwrap();
        let universe = link_universe(&[], &p);
        let instance =
            CompiledInstance::compile(&m, &universe, &AvailableBandwidthOptions::default())
                .unwrap();
        assert!(instance.query_colgen(&m, &[], &p).is_err());
    }

    /// Two independent conflict groups; a rate change inside one group must
    /// leave the other group's unit `Arc`-identical and produce answers
    /// bit-identical to a fresh compile.
    #[test]
    fn apply_delta_reuses_clean_components_and_matches_fresh() {
        let build = |low_rate: bool| {
            let mut t = Topology::new();
            let mut links = Vec::new();
            for i in 0..4 {
                let a = t.add_node(f64::from(i) * 10.0, 0.0);
                let b = t.add_node(f64::from(i) * 10.0 + 5.0, 0.0);
                links.push(t.add_link(a, b).unwrap());
            }
            let mut b = DeclarativeModel::builder(t);
            for (i, &l) in links.iter().enumerate() {
                if i == 0 && low_rate {
                    b = b.alone_rates(l, &[r(18.0)]);
                } else {
                    b = b.alone_rates(l, &[r(54.0), r(18.0)]);
                }
            }
            b = b
                .conflict_all(links[0], links[1])
                .conflict_all(links[2], links[3]);
            (b.build(), links)
        };
        let (m_old, links) = build(false);
        let (m_new, _) = build(true);
        let delta = TopologyDelta::between(&m_old, &m_new);
        assert_eq!(delta.rate_changed_links, vec![links[0]]);
        for solver in [SolverKind::FullEnumeration, SolverKind::ColumnGeneration] {
            let options = AvailableBandwidthOptions {
                decompose: true,
                solver,
                ..AvailableBandwidthOptions::default()
            };
            let old = CompiledInstance::compile(&m_old, &links, &options).unwrap();
            let mut cache = UnitCache::default();
            let (next, reuse) = old.apply_delta(&m_new, &delta, &mut cache).unwrap();
            assert_eq!(reuse.units_reused, 1, "links 2-3 component untouched");
            assert_eq!(reuse.units_compiled, 1, "links 0-1 component dirty");
            assert_eq!(reuse.dirty_links, 1);
            // Structural reuse: the clean component's unit is the same Arc.
            let clean_old = old
                .components()
                .iter()
                .position(|c| c.contains(&links[2]))
                .unwrap();
            let clean_new = next
                .components()
                .iter()
                .position(|c| c.contains(&links[2]))
                .unwrap();
            assert!(Arc::ptr_eq(
                &old.units()[clean_old],
                &next.units()[clean_new]
            ));
            // Bit-identity with a fresh compile.
            let fresh = CompiledInstance::compile(&m_new, &links, &options).unwrap();
            let path = Path::new(m_new.topology(), vec![links[0]]).unwrap();
            let bg =
                vec![Flow::new(Path::new(m_new.topology(), vec![links[1]]).unwrap(), 5.0).unwrap()];
            let a = next.query(&m_new, &bg, &path).unwrap();
            let b = fresh.query(&m_new, &bg, &path).unwrap();
            assert_eq!(a.bandwidth_mbps().to_bits(), b.bandwidth_mbps().to_bits());
            assert_eq!(a, b);
            assert_eq!(next.num_columns(), fresh.num_columns());
            assert_eq!(next.components(), fresh.components());
        }
    }

    /// A rate change that merges two components (new conflict appears) and
    /// the reverse split must both track a fresh compile.
    #[test]
    fn apply_delta_handles_component_merges_and_splits() {
        let build = |joined: bool| {
            let mut t = Topology::new();
            let mut links = Vec::new();
            for i in 0..4 {
                let a = t.add_node(f64::from(i) * 10.0, 0.0);
                let b = t.add_node(f64::from(i) * 10.0 + 5.0, 0.0);
                links.push(t.add_link(a, b).unwrap());
            }
            let mut b = DeclarativeModel::builder(t);
            for (i, &l) in links.iter().enumerate() {
                // The bridge conflict is declared at rate 54 on link 1; it is
                // only *reachable* when link 1 actually lists rate 54.
                let joined_rates: &[Rate] = &[r(54.0), r(18.0)];
                let split_rates: &[Rate] = &[r(18.0)];
                b = b.alone_rates(
                    l,
                    if i == 1 && !joined {
                        split_rates
                    } else {
                        joined_rates
                    },
                );
            }
            b = b
                .conflict_all(links[0], links[1])
                .conflict_at(links[1], r(54.0), links[2], r(54.0))
                .conflict_all(links[2], links[3]);
            (b.build(), links)
        };
        let options = AvailableBandwidthOptions {
            decompose: true,
            ..AvailableBandwidthOptions::default()
        };
        let (m_split, links) = build(false);
        let (m_joined, _) = build(true);
        let split = CompiledInstance::compile(&m_split, &links, &options).unwrap();
        let joined = CompiledInstance::compile(&m_joined, &links, &options).unwrap();
        assert_eq!(split.components().len(), 2);
        assert_eq!(joined.components().len(), 1);
        let mut cache = UnitCache::default();
        let merge = TopologyDelta::between(&m_split, &m_joined);
        let (merged, _) = split.apply_delta(&m_joined, &merge, &mut cache).unwrap();
        assert_eq!(merged.components(), joined.components());
        let unmerge = TopologyDelta::between(&m_joined, &m_split);
        let (resplit, reuse) = merged.apply_delta(&m_split, &unmerge, &mut cache).unwrap();
        assert_eq!(resplit.components(), split.components());
        let p = Path::new(m_split.topology(), vec![links[2]]).unwrap();
        let a = resplit.query(&m_split, &[], &p).unwrap();
        let b = split.query(&m_split, &[], &p).unwrap();
        assert_eq!(a.bandwidth_mbps().to_bits(), b.bandwidth_mbps().to_bits());
        assert!(reuse.units_reused + reuse.unit_cache_hits + reuse.units_compiled >= 2);
    }

    /// Session-level migration: apply_delta keeps every universe answering
    /// identically to a cold session on the new model, and the unit cache
    /// turns an A→B→A oscillation into pure hits.
    #[test]
    fn session_apply_delta_migrates_and_oscillation_hits_cache() {
        let (m_a, links) = line_model(4, &[r(54.0), r(18.0)], &[(0, 1), (2, 3)]);
        let (m_b, _) = {
            // Same structure, link 0 loses its top rate.
            let mut t = Topology::new();
            let mut ls = Vec::new();
            for i in 0..4 {
                let a = t.add_node(i as f64 * 10.0, 0.0);
                let b = t.add_node(i as f64 * 10.0 + 5.0, 0.0);
                ls.push(t.add_link(a, b).unwrap());
            }
            let mut b = DeclarativeModel::builder(t);
            let low: &[Rate] = &[r(18.0)];
            let full: &[Rate] = &[r(54.0), r(18.0)];
            for (i, &l) in ls.iter().enumerate() {
                b = b.alone_rates(l, if i == 0 { low } else { full });
            }
            b = b.conflict_all(ls[0], ls[1]).conflict_all(ls[2], ls[3]);
            (b.build(), ls)
        };
        let options = AvailableBandwidthOptions {
            decompose: true,
            ..AvailableBandwidthOptions::default()
        };
        let p01 = Path::new(m_a.topology(), vec![links[0]]).unwrap();
        let p23 = Path::new(m_a.topology(), vec![links[2]]).unwrap();
        let bg = vec![Flow::new(Path::new(m_a.topology(), vec![links[1]]).unwrap(), 3.0).unwrap()];
        let mut session = Session::new(&m_a, options);
        session.query(&bg, &p01).unwrap();
        session.query(&[], &p23).unwrap();
        let a_to_b = TopologyDelta::between(&m_a, &m_b);
        let b_to_a = TopologyDelta::between(&m_b, &m_a);
        let reuse = session.apply_delta(&m_b, &a_to_b);
        assert!(reuse.units_compiled >= 1);
        let mut cold_b = Session::new(&m_b, options);
        assert_eq!(
            session.query(&bg, &p01).unwrap(),
            cold_b.query(&bg, &p01).unwrap()
        );
        assert_eq!(
            session.query(&[], &p23).unwrap(),
            cold_b.query(&[], &p23).unwrap()
        );
        // Oscillate back: link 0's original unit is still in the cache.
        let reuse = session.apply_delta(&m_a, &b_to_a);
        assert_eq!(reuse.units_compiled, 0, "oscillation must be all hits");
        assert!(reuse.unit_cache_hits >= 1);
        let mut cold_a = Session::new(&m_a, options);
        assert_eq!(
            session.query(&bg, &p01).unwrap(),
            cold_a.query(&bg, &p01).unwrap()
        );
        assert_eq!(session.stats().delta_applications, 2);
    }
}

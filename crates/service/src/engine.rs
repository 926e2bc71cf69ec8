//! Query execution: topology registry, the two-level cache, coalesced
//! compilation, and the per-query handlers.
//!
//! # Cache design
//!
//! Two LRU layers sit in front of the paper's Eq. 6 pipeline:
//!
//! 1. **Instance cache** — a compiled [`awb_core::CompiledInstance`]
//!    (enumerated set pools under full enumeration; pricing oracles plus
//!    deterministic seed columns under column generation), keyed by
//!    `(topology content hash, link universe, solve options)`. The
//!    universe is part of the key because the Eq. 6 LP ranges over exactly
//!    the links the background flows and the new path touch — two
//!    requests on the same topology share an instance only if they touch
//!    the same links. A hit skips the exponential compile step and
//!    re-solves only the LP, which is polynomial in the column count.
//! 2. **Result cache** — the fully rendered answer, keyed additionally by
//!    the background demands, the path, and the query kind. A hit skips
//!    the LP too and replays the exact JSON (f64s round-trip exactly
//!    through the shortest-representation formatter, so a cached answer is
//!    byte-identical to a recomputed one).
//!
//! Instances are filled on demand, and `Engine::instance` alone decides
//! how a missing one is obtained. Concurrent misses on the same instance
//! are *coalesced*: one leader builds it while the rest block for its
//! result ([`crate::coalesce`]). The leader patches the parent topology's
//! cached instance when `update` produced the queried topology from one
//! ([`CompiledInstance::apply_delta`] recompiles only the conflict
//! components the delta touched), and compiles cold otherwise. `update`
//! itself never touches instances, so it pays nothing for the ones that
//! are never queried again.

use crate::cache::LruCache;
use crate::coalesce::{Coalescer, Role};
use crate::lock::lock_recover;
use crate::metrics::Metrics;
use crate::protocol::{
    CacheStatus, ErrorCode, FlowSpec, QueryKind, Request, ServiceError, TopologyRef,
};
use crate::spec::{FnvHasher, TopologySpec};
use awb_core::{
    link_universe, AvailableBandwidth, AvailableBandwidthOptions, CompiledInstance, CoreError,
    Flow, PricingMode, Session, SolverKind, UnitCache,
};
use awb_estimate::{Estimator, Hop, IdleMap};
use awb_net::{LinkRateModel, Path, TopologyDelta};
use awb_sets::{EngineKind, EnumerationOptions};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A topology with its built model, shared across requests.
pub struct ResolvedTopology {
    /// The interference model.
    pub model: Arc<dyn LinkRateModel + Send + Sync>,
    /// Content hash of the canonical spec.
    pub content_hash: u64,
    /// The canonical spec itself — kept so `update` can patch it
    /// index-preservingly and register the result.
    pub spec: TopologySpec,
    /// For a topology `update` produced: the content hash it was patched
    /// from and the delta leading here, so an instance-cache miss can
    /// patch the parent's cached instance instead of compiling. `None`
    /// for registered and inline specs, and for updates that left the
    /// content hash unchanged.
    pub parent: Option<(u64, TopologyDelta)>,
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Capacity of the compiled-instance LRU.
    pub sets_cache_capacity: usize,
    /// Capacity of the rendered-result LRU.
    pub result_cache_capacity: usize,
    /// Capacity of the built-model LRU, which holds inline specs and the
    /// topologies `update` produces (registered ones stay pinned).
    pub model_cache_capacity: usize,
    /// Enumeration engine used for cold set-pool builds. Every engine is
    /// byte-identical in output, so switching it never invalidates cached
    /// pools (and the sets-cache key deliberately excludes it).
    pub enumeration_engine: EngineKind,
    /// LP solve strategy. Under [`SolverKind::ColumnGeneration`] the engine
    /// skips set enumeration entirely and instead caches one compiled
    /// pricing oracle plus a deterministic seed-column pool per
    /// `(topology, universe)`, so an `admit` sequence on the same topology
    /// pays the oracle compile once and answers are independent of the
    /// order requests arrive in.
    pub solver: SolverKind,
    /// Compile per conflict component instead of per whole universe (see
    /// [`AvailableBandwidthOptions::decompose`]: exact for pairwise models;
    /// for SINR models an upper bound of the joint optimum that can exceed
    /// it, exact when the superimposed witness passes
    /// `LinkRateModel::admissible`). `true` is what makes patching
    /// an instance after an `update` component-granular (an untouched
    /// component is reused without recompilation), at the cost of storing
    /// the component adjacency alongside each instance.
    pub decompose: bool,
    /// Column-pricing strategy under [`SolverKind::ColumnGeneration`].
    /// Heuristic-first vs exact-only only steers how columns are searched
    /// for — every converged answer carries the same exact-oracle
    /// certificate — so it stays out of the instance-cache key like the
    /// enumeration engine does.
    pub pricing: PricingMode,
    /// Dual-smoothing factor for stage-B pricing (1.0 disables).
    pub stab_alpha: f64,
    /// Threads for per-component pricing inside one solve (0 = all cores).
    /// Orthogonal to the server's request-level parallelism; the default 1
    /// is right unless single queries over very large universes dominate.
    pub pricing_threads: usize,
    /// Per-component cap on the colgen stage-B column pool (0 = unbounded).
    /// A perf/memory knob like the pricing mode, so it stays out of the
    /// instance-cache key.
    pub column_pool_cap: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sets_cache_capacity: 128,
            result_cache_capacity: 1024,
            model_cache_capacity: 64,
            enumeration_engine: EngineKind::Auto,
            solver: SolverKind::default(),
            decompose: AvailableBandwidthOptions::default().decompose,
            pricing: PricingMode::default(),
            stab_alpha: AvailableBandwidthOptions::default().stab_alpha,
            pricing_threads: 1,
            column_pool_cap: AvailableBandwidthOptions::default().column_pool_cap,
        }
    }
}

impl EngineConfig {
    /// The solve options every Eq. 6 query of an [`Engine`] built from this
    /// config runs under (a request may still narrow `max_set_size`): the
    /// one mapping from config fields to [`AvailableBandwidthOptions`].
    pub fn solve_options(&self) -> AvailableBandwidthOptions {
        AvailableBandwidthOptions {
            enumeration: EnumerationOptions {
                engine: self.enumeration_engine,
                ..EnumerationOptions::default()
            },
            solver: self.solver,
            decompose: self.decompose,
            pricing: self.pricing,
            stab_alpha: self.stab_alpha,
            pricing_threads: self.pricing_threads,
            column_pool_cap: self.column_pool_cap,
            ..AvailableBandwidthOptions::default()
        }
    }
}

/// The shared, thread-safe query engine.
pub struct Engine {
    /// Topologies pinned by `register_topology`, by content hash.
    registry: Mutex<BTreeMap<u64, Arc<ResolvedTopology>>>,
    /// Built models for inline specs and `update` results (evictable,
    /// unlike the registry).
    models: Mutex<LruCache<ResolvedTopology>>,
    /// Compiled per-universe instances (set pools or pricing oracles),
    /// filled on demand by `Engine::instance`.
    instances: Mutex<LruCache<CompiledInstance>>,
    /// Concurrent misses on the same instance share one compile or patch.
    builds: Coalescer<Result<Arc<CompiledInstance>, CoreError>>,
    /// Rendered results.
    results: Mutex<LruCache<Value>>,
    /// The solve options every Eq. 6 query runs under; only the request's
    /// `max_set_size` varies (`Engine::solve_options`).
    options: AvailableBandwidthOptions,
    /// Reactor-core counters, attached when the nonblocking server fronts
    /// this engine; merged into `stats` responses.
    reactor_metrics: Mutex<Option<Arc<awb_reactor::ReactorMetrics>>>,
    /// Service counters.
    pub metrics: Metrics,
}

/// A successful query outcome: the `result` payload plus cache provenance
/// (`None` for queries without a cacheable stage, e.g. `stats`).
pub type QueryOutcome = (Value, Option<CacheStatus>);

fn core_error(e: CoreError) -> ServiceError {
    match e {
        CoreError::BackgroundInfeasible => ServiceError::new(
            ErrorCode::InfeasibleBackground,
            "background flows alone are infeasible",
        ),
        CoreError::InvalidDemand(d) => {
            ServiceError::bad_request(format!("invalid demand {d} Mbps"))
        }
        CoreError::Path(e) => ServiceError::bad_request(format!("invalid path: {e}")),
        other => ServiceError::new(ErrorCode::Internal, format!("solver failure: {other}")),
    }
}

impl Engine {
    /// Creates an engine with the given cache capacities.
    pub fn new(config: EngineConfig) -> Engine {
        Engine {
            registry: Mutex::new(BTreeMap::new()),
            models: Mutex::new(LruCache::new(config.model_cache_capacity)),
            instances: Mutex::new(LruCache::new(config.sets_cache_capacity)),
            builds: Coalescer::new(),
            results: Mutex::new(LruCache::new(config.result_cache_capacity)),
            options: config.solve_options(),
            reactor_metrics: Mutex::new(None),
            metrics: Metrics::new(),
        }
    }

    /// Attaches the reactor's counters so `stats` responses include them.
    pub fn attach_reactor_metrics(&self, metrics: Arc<awb_reactor::ReactorMetrics>) {
        *lock_recover(&self.reactor_metrics) = Some(metrics);
    }

    /// Renders the `stats` payload: service counters, instance-cache
    /// occupancy, and (when attached) the reactor's event-loop gauges.
    /// Instance-cache hits and misses are the top-level `sets_cache_*`
    /// counters.
    fn stats_value(&self) -> Value {
        let mut value = self.metrics.to_value();
        if let Value::Object(m) = &mut value {
            let (len, evictions) = {
                let instances = lock_recover(&self.instances);
                (instances.len(), instances.evictions())
            };
            let mut c = Map::new();
            c.insert("len".into(), Value::Number(len as f64));
            c.insert("evictions".into(), Value::Number(evictions as f64));
            m.insert("instance_cache".into(), Value::Object(c));
            if let Some(reactor) = lock_recover(&self.reactor_metrics).as_ref() {
                let mut r = Map::new();
                for (name, v) in reactor.snapshot() {
                    r.insert(name.into(), Value::Number(v as f64));
                }
                m.insert("reactor".into(), Value::Object(r));
            }
        }
        value
    }

    /// Executes one parsed request. `deadline` is the absolute instant the
    /// request must finish by; it is checked between pipeline stages (the
    /// stages themselves are not interruptible).
    ///
    /// # Errors
    ///
    /// [`ServiceError`] for malformed requests, unknown topology refs,
    /// missed deadlines, infeasible backgrounds and solver failures.
    pub fn handle(
        &self,
        request: &Request,
        deadline: Option<Instant>,
    ) -> Result<QueryOutcome, ServiceError> {
        self.check_deadline(deadline)?;
        match request.query {
            QueryKind::Stats => Ok((self.stats_value(), None)),
            QueryKind::RegisterTopology => self.register(request),
            QueryKind::Update => self.update(request, deadline).map(|(v, s)| (v, Some(s))),
            QueryKind::AvailableBandwidth => {
                let (value, status) = self.available_bandwidth(request, deadline)?;
                Ok((value, Some(status)))
            }
            QueryKind::Admit => {
                let demand = request
                    .demand_mbps
                    .ok_or_else(|| ServiceError::bad_request("`admit` requires `demand_mbps`"))?;
                let (value, status) = self.available_bandwidth(request, deadline)?;
                let available = value
                    .get("bandwidth_mbps")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                // Same tolerance as `awb_core::feasibility::admits`.
                let admitted = available + 1e-9 >= demand;
                let mut m = Map::new();
                m.insert("admitted".into(), Value::Bool(admitted));
                m.insert("demand_mbps".into(), Value::Number(demand));
                m.insert("available_mbps".into(), Value::Number(available));
                Ok((Value::Object(m), Some(status)))
            }
            QueryKind::AdmitBatch => self
                .admit_batch(request, deadline)
                .map(|(v, s)| (v, Some(s))),
            QueryKind::Bounds => self.bounds(request, deadline).map(|(v, s)| (v, Some(s))),
            QueryKind::Estimate => self.estimate(request).map(|v| (v, None)),
        }
    }

    fn check_deadline(&self, deadline: Option<Instant>) -> Result<(), ServiceError> {
        match deadline {
            Some(d) if Instant::now() >= d => {
                Metrics::bump(&self.metrics.deadline_exceeded);
                Err(ServiceError::new(
                    ErrorCode::DeadlineExceeded,
                    "deadline elapsed before the request completed",
                ))
            }
            _ => Ok(()),
        }
    }

    /// The topology held under `hash`: pinned in the registry, else in the
    /// model LRU. The two locks are taken one after the other, never
    /// nested, so they add no lock-order edge.
    fn held(&self, hash: u64) -> Option<Arc<ResolvedTopology>> {
        let pinned = lock_recover(&self.registry).get(&hash).cloned();
        pinned.or_else(|| lock_recover(&self.models).get(hash))
    }

    /// Resolves a request's topology to a built model, via the held
    /// topologies (hash refs) or the model LRU (inline specs).
    fn resolve(&self, reference: &TopologyRef) -> Result<Arc<ResolvedTopology>, ServiceError> {
        match reference {
            TopologyRef::Registered(hash) => self.held(*hash).ok_or_else(|| {
                ServiceError::new(
                    ErrorCode::UnknownTopology,
                    format!("no registered topology with hash {hash:016x}"),
                )
            }),
            TopologyRef::Inline(spec) => {
                let hash = spec.content_hash();
                if let Some(found) = lock_recover(&self.models).get(hash) {
                    return Ok(found);
                }
                let built = spec.build()?;
                let resolved = ResolvedTopology {
                    model: built.model,
                    content_hash: built.content_hash,
                    spec: spec.clone(),
                    parent: None,
                };
                Ok(lock_recover(&self.models).insert(hash, resolved))
            }
        }
    }

    fn register(&self, request: &Request) -> Result<QueryOutcome, ServiceError> {
        let Some(TopologyRef::Inline(spec)) = &request.topology else {
            return Err(ServiceError::bad_request(
                "`register_topology` requires an inline `topology` spec",
            ));
        };
        let built = spec.build()?;
        let hash = built.content_hash;
        let topology = built.model.topology();
        let mut m = Map::new();
        m.insert(
            "topology_hash".into(),
            Value::String(format!("{hash:016x}")),
        );
        m.insert(
            "num_nodes".into(),
            Value::Number(topology.num_nodes() as f64),
        );
        m.insert(
            "num_links".into(),
            Value::Number(topology.num_links() as f64),
        );
        lock_recover(&self.registry).insert(
            hash,
            Arc::new(ResolvedTopology {
                model: built.model,
                content_hash: hash,
                spec: spec.clone(),
                parent: None,
            }),
        );
        Ok((Value::Object(m), None))
    }

    /// Builds the new path and background flows against a resolved model.
    fn materialize(
        &self,
        resolved: &ResolvedTopology,
        background: &[FlowSpec],
        path: &[usize],
    ) -> Result<(Path, Vec<Flow>), ServiceError> {
        let topology = resolved.model.topology();
        let new_path = TopologySpec::parse_path(topology, path)?;
        let flows = background
            .iter()
            .map(|f| {
                let p = TopologySpec::parse_path(topology, &f.path)?;
                Flow::new(p, f.demand_mbps).map_err(core_error)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((new_path, flows))
    }

    /// The engine's solve options with the request's `max_set_size`.
    fn solve_options(&self, request: &Request) -> AvailableBandwidthOptions {
        let mut options = self.options;
        options.enumeration.max_set_size = request.max_set_size;
        options
    }

    /// The key identifying a compiled instance: topology content hash,
    /// universe and the options that shape the compiled artifact. The
    /// enumeration engine choice is deliberately **not** part of the key:
    /// all engines return byte-identical pools, so an instance built by one
    /// engine is a valid hit for any other. Under column generation the
    /// enumeration options are irrelevant (nothing is enumerated) and stay
    /// out of the key, so `admit` sweeps varying `max_set_size` still share
    /// one oracle.
    fn instance_key(
        topology_hash: u64,
        universe: &[awb_net::LinkId],
        options: &AvailableBandwidthOptions,
    ) -> u64 {
        let mut h = FnvHasher::default();
        h.write_u64(topology_hash);
        h.write_u64(universe.len() as u64);
        for l in universe {
            h.write_u64(l.index() as u64);
        }
        h.write_u64(options.solver as u64);
        h.write_u64(u64::from(options.decompose));
        h.write_f64(options.dust_epsilon);
        if options.solver == SolverKind::FullEnumeration {
            h.write_u64(u64::from(options.enumeration.prune_dominated));
            h.write_u64(
                options
                    .enumeration
                    .max_set_size
                    .map_or(u64::MAX, |n| n as u64),
            );
        }
        h.finish()
    }

    /// The key identifying a full query answer.
    fn result_key(request: &Request, resolved: &ResolvedTopology) -> u64 {
        let mut h = FnvHasher::default();
        // `admit` deliberately shares the available-bandwidth entry: its
        // answer derives from the same LP value.
        let kind = match request.query {
            QueryKind::Admit => QueryKind::AvailableBandwidth,
            k => k,
        };
        h.write_u64(kind as u64);
        h.write_u64(resolved.content_hash);
        h.write_u64(request.background.len() as u64);
        for flow in &request.background {
            h.write_u64(flow.path.len() as u64);
            for &l in &flow.path {
                h.write_u64(l as u64);
            }
            h.write_f64(flow.demand_mbps);
        }
        h.write_u64(request.path.len() as u64);
        for &l in &request.path {
            h.write_u64(l as u64);
        }
        h.write_u64(request.arrivals.len() as u64);
        for flow in &request.arrivals {
            h.write_u64(flow.path.len() as u64);
            for &l in &flow.path {
                h.write_u64(l as u64);
            }
            h.write_f64(flow.demand_mbps);
        }
        h.write_u64(request.max_set_size.map_or(u64::MAX, |n| n as u64));
        h.finish()
    }

    /// Returns the compiled instance for `(resolved, universe, options)`,
    /// building it (coalesced) on a miss. The second component tells the
    /// caller how the instance was obtained.
    fn instance(
        &self,
        resolved: &ResolvedTopology,
        universe: &[awb_net::LinkId],
        options: &AvailableBandwidthOptions,
    ) -> Result<(Arc<CompiledInstance>, CacheStatus), ServiceError> {
        let key = Engine::instance_key(resolved.content_hash, universe, options);
        let cached = lock_recover(&self.instances).get(key);
        if let Some(instance) = cached {
            Metrics::bump(&self.metrics.sets_cache_hits);
            return Ok((instance, CacheStatus::SetsHit));
        }
        let (built, role) = self.builds.run(key, || {
            let started = Instant::now();
            let built = self
                .patch_or_compile(resolved, universe, options)
                .map(Arc::new);
            self.metrics.enumeration_latency.record(started.elapsed());
            if let Ok(instance) = &built {
                lock_recover(&self.instances).insert_shared(key, Arc::clone(instance));
            }
            built
        });
        let status = match role {
            Role::Leader => {
                Metrics::bump(&self.metrics.sets_cache_misses);
                CacheStatus::Miss
            }
            Role::Follower => {
                Metrics::bump(&self.metrics.coalesced);
                CacheStatus::Coalesced
            }
        };
        let built = built.ok_or_else(|| {
            ServiceError::new(
                ErrorCode::Internal,
                "coalesced compilation failed in the leading request",
            )
        })?;
        match &*built {
            Ok(instance) => Ok((Arc::clone(instance), status)),
            Err(e) => Err(core_error(e.clone())),
        }
    }

    /// Builds an instance the cache lacks. When `update` produced
    /// `resolved` and the parent topology's instance for the same universe
    /// and options is cached, patches it with
    /// [`CompiledInstance::apply_delta`], recompiling only the conflict
    /// components the delta touched. Otherwise, or when the patch fails
    /// because the delta removed a universe link, compiles cold.
    fn patch_or_compile(
        &self,
        resolved: &ResolvedTopology,
        universe: &[awb_net::LinkId],
        options: &AvailableBandwidthOptions,
    ) -> Result<CompiledInstance, CoreError> {
        let model: &(dyn LinkRateModel + Send + Sync) = &*resolved.model;
        if let Some((parent_hash, delta)) = &resolved.parent {
            let parent_key = Engine::instance_key(*parent_hash, universe, options);
            let parent = lock_recover(&self.instances).get(parent_key);
            let patched = parent.map(|p| p.apply_delta(&model, delta, &mut UnitCache::default()));
            if let Some(Ok((instance, reuse))) = patched {
                self.metrics.record_patch(&reuse);
                return Ok(instance);
            }
        }
        CompiledInstance::compile(&model, universe, options)
    }

    /// The dynamic-topology patch path (`update`): applies the request's
    /// [`crate::spec::DeltaSpec`] to the resolved topology and holds the
    /// patched topology in the model LRU under its new content hash,
    /// together with its parent's hash and the core delta. Compiled
    /// instances are left alone: the first query that misses on the new
    /// topology patches the parent's cached instance (`Engine::instance`).
    ///
    /// The update is keyed off the delta hash chain
    /// `fnv(old topology hash, delta chain hash)`: replaying the identical
    /// update is a result-cache hit that performs no work while the
    /// topology it produced is still held, and recomputes it (a miss with
    /// the same reply) once the LRU has evicted it. The reply keeps
    /// its `instances_patched` and `reuse` fields, which always read 0; the
    /// `stats` counters of the same names count the lazy patches.
    // awb-audit: hot
    fn update(
        &self,
        request: &Request,
        deadline: Option<Instant>,
    ) -> Result<(Value, CacheStatus), ServiceError> {
        let reference = request
            .topology
            .as_ref()
            .ok_or_else(|| ServiceError::bad_request("`update` requires a `topology`"))?;
        let delta = request
            .delta
            .as_ref()
            .ok_or_else(|| ServiceError::bad_request("`update` requires a `delta` object"))?;
        let resolved = self.resolve(reference)?;
        let mut h = FnvHasher::default();
        h.write_u64(QueryKind::Update as u64);
        h.write_u64(resolved.content_hash);
        h.write_u64(delta.chain_hash());
        let result_key = h.finish();
        let cached = lock_recover(&self.results).get(result_key);
        if let Some(cached) = cached {
            let produced = cached
                .get("topology_hash")
                .and_then(Value::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            if produced.and_then(|h| self.held(h)).is_some() {
                Metrics::bump(&self.metrics.result_cache_hits);
                return Ok(((*cached).clone(), CacheStatus::Hit));
            }
        }
        Metrics::bump(&self.metrics.result_cache_misses);
        self.check_deadline(deadline)?;

        let (patched_spec, core_delta) = resolved.spec.apply_delta(delta)?;
        let built = patched_spec.build()?;
        let new_hash = built.content_hash;
        let new_resolved = Arc::new(ResolvedTopology {
            model: built.model,
            content_hash: new_hash,
            spec: patched_spec,
            parent: (new_hash != resolved.content_hash)
                .then_some((resolved.content_hash, core_delta)),
        });
        lock_recover(&self.models).insert_shared(new_hash, Arc::clone(&new_resolved));
        Metrics::bump(&self.metrics.updates);

        let topology = new_resolved.model.topology();
        let mut m = Map::new();
        m.insert(
            "topology_hash".into(),
            Value::String(format!("{new_hash:016x}")),
        );
        m.insert(
            "previous_hash".into(),
            Value::String(format!("{:016x}", resolved.content_hash)),
        );
        m.insert(
            "num_nodes".into(),
            Value::Number(topology.num_nodes() as f64),
        );
        m.insert(
            "num_links".into(),
            Value::Number(topology.num_links() as f64),
        );
        m.insert("instances_patched".into(), Value::Number(0.0));
        let mut r = Map::new();
        for field in [
            "units_reused",
            "unit_cache_hits",
            "units_compiled",
            "dirty_links",
            "full_recompiles",
        ] {
            r.insert(field.into(), Value::Number(0.0));
        }
        m.insert("reuse".into(), Value::Object(r));
        let value = Value::Object(m);
        lock_recover(&self.results).insert(result_key, value.clone());
        Ok((value, CacheStatus::Miss))
    }

    /// The full Eq. 6 pipeline with both cache layers.
    fn available_bandwidth(
        &self,
        request: &Request,
        deadline: Option<Instant>,
    ) -> Result<(Value, CacheStatus), ServiceError> {
        let reference = request
            .topology
            .as_ref()
            .ok_or_else(|| ServiceError::bad_request("this query requires a `topology`"))?;
        let resolved = self.resolve(reference)?;
        let (new_path, flows) = self.materialize(&resolved, &request.background, &request.path)?;
        let result_key = Engine::result_key(request, &resolved);
        if let Some(cached) = lock_recover(&self.results).get(result_key) {
            Metrics::bump(&self.metrics.result_cache_hits);
            return Ok(((*cached).clone(), CacheStatus::Hit));
        }
        Metrics::bump(&self.metrics.result_cache_misses);
        self.check_deadline(deadline)?;

        // One key derivation for both solver families: the universe is
        // computed exactly as the core library would, so a cached instance
        // answers queries bit-identically to a cold
        // [`awb_core::available_bandwidth`] call.
        let universe = link_universe(&flows, &new_path);
        let options = self.solve_options(request);
        let (instance, status) = self.instance(&resolved, &universe, &options)?;
        self.check_deadline(deadline)?;

        let model: &(dyn LinkRateModel + Send + Sync) = &*resolved.model;
        let started = Instant::now();
        let out = instance
            .query(&model, &flows, &new_path)
            .map_err(core_error)?;
        self.metrics.lp_latency.record(started.elapsed());

        let value = render_available_bandwidth(&out);
        lock_recover(&self.results).insert(result_key, value.clone());
        Ok((value, status))
    }

    /// The whole-arrival-sequence admission sweep (`admit_batch`).
    ///
    /// Arrivals are evaluated in order against the initial background plus
    /// every previously admitted arrival — each answer bit-identical to
    /// the equivalent single `admit` request a client would have issued at
    /// that point. One warm [`Session`] carries the sweep: arrivals whose
    /// link universe repeats (the common case when flows share links) pay
    /// zero compilation, and the LP scratch buffers are reused throughout.
    fn admit_batch(
        &self,
        request: &Request,
        deadline: Option<Instant>,
    ) -> Result<(Value, CacheStatus), ServiceError> {
        let reference = request
            .topology
            .as_ref()
            .ok_or_else(|| ServiceError::bad_request("this query requires a `topology`"))?;
        let resolved = self.resolve(reference)?;
        let result_key = Engine::result_key(request, &resolved);
        if let Some(cached) = lock_recover(&self.results).get(result_key) {
            Metrics::bump(&self.metrics.result_cache_hits);
            return Ok(((*cached).clone(), CacheStatus::Hit));
        }
        Metrics::bump(&self.metrics.result_cache_misses);
        self.check_deadline(deadline)?;

        let topology = resolved.model.topology();
        let mut flows = request
            .background
            .iter()
            .map(|f| {
                let p = TopologySpec::parse_path(topology, &f.path)?;
                Flow::new(p, f.demand_mbps).map_err(core_error)
            })
            .collect::<Result<Vec<_>, ServiceError>>()?;
        let arrivals = request
            .arrivals
            .iter()
            .map(|f| {
                let p = TopologySpec::parse_path(topology, &f.path)?;
                Ok((p, f.demand_mbps))
            })
            .collect::<Result<Vec<_>, ServiceError>>()?;

        let options = self.solve_options(request);
        let model: &(dyn LinkRateModel + Send + Sync) = &*resolved.model;
        let mut session = Session::new(&model, options);
        let mut rows = Vec::with_capacity(arrivals.len());
        let mut admitted_count = 0u64;
        for (path, demand) in arrivals {
            self.check_deadline(deadline)?;
            let started = Instant::now();
            let out = session.query(&flows, &path).map_err(core_error)?;
            self.metrics.lp_latency.record(started.elapsed());
            let available = out.bandwidth_mbps();
            // Same tolerance as `awb_core::feasibility::admits` and the
            // single-request `admit` path.
            let admitted = available + 1e-9 >= demand;
            let mut row = Map::new();
            row.insert("admitted".into(), Value::Bool(admitted));
            row.insert("demand_mbps".into(), Value::Number(demand));
            row.insert("available_mbps".into(), Value::Number(available));
            rows.push(Value::Object(row));
            if admitted {
                admitted_count += 1;
                flows.push(Flow::new(path, demand).map_err(core_error)?);
            }
        }
        let stats = session.stats();
        let mut m = Map::new();
        m.insert("results".into(), Value::Array(rows));
        m.insert(
            "admitted_count".into(),
            Value::Number(admitted_count as f64),
        );
        let mut s = Map::new();
        s.insert("compiles".into(), Value::Number(stats.compiles as f64));
        s.insert(
            "warm_queries".into(),
            Value::Number(stats.warm_queries as f64),
        );
        s.insert(
            "delta_applications".into(),
            Value::Number(stats.delta_applications as f64),
        );
        s.insert(
            "units_reused".into(),
            Value::Number(stats.delta_reuse.units_reused as f64),
        );
        s.insert(
            "unit_cache_hits".into(),
            Value::Number(stats.delta_reuse.unit_cache_hits as f64),
        );
        s.insert(
            "units_compiled".into(),
            Value::Number(stats.delta_reuse.units_compiled as f64),
        );
        m.insert("session".into(), Value::Object(s));
        let value = Value::Object(m);
        lock_recover(&self.results).insert(result_key, value.clone());
        Ok((value, CacheStatus::Miss))
    }

    /// Eq. 7/9 upper bounds and the §3.3 restricted-pool lower bound.
    fn bounds(
        &self,
        request: &Request,
        deadline: Option<Instant>,
    ) -> Result<(Value, CacheStatus), ServiceError> {
        let reference = request
            .topology
            .as_ref()
            .ok_or_else(|| ServiceError::bad_request("this query requires a `topology`"))?;
        let resolved = self.resolve(reference)?;
        let (new_path, flows) = self.materialize(&resolved, &request.background, &request.path)?;
        let result_key = Engine::result_key(request, &resolved);
        if let Some(cached) = lock_recover(&self.results).get(result_key) {
            Metrics::bump(&self.metrics.result_cache_hits);
            return Ok(((*cached).clone(), CacheStatus::Hit));
        }
        Metrics::bump(&self.metrics.result_cache_misses);
        self.check_deadline(deadline)?;

        let model: &(dyn LinkRateModel + Send + Sync) = &*resolved.model;
        let max_set_size = request.max_set_size.unwrap_or(2);
        let mut m = Map::new();
        match awb_core::bounds::clique_upper_bound(
            &model,
            &flows,
            &new_path,
            &awb_core::bounds::UpperBoundOptions::default(),
        ) {
            Ok(upper) => {
                m.insert("upper_mbps".into(), Value::Number(upper));
            }
            Err(e) => {
                m.insert("upper_mbps".into(), Value::Null);
                m.insert("upper_error".into(), Value::String(e.to_string()));
            }
        }
        self.check_deadline(deadline)?;
        match awb_core::bounds::lower_bound_max_set_size(&model, &flows, &new_path, max_set_size) {
            Ok(lower) => {
                m.insert("lower_mbps".into(), Value::Number(lower));
            }
            Err(e) => {
                m.insert("lower_mbps".into(), Value::Null);
                m.insert("lower_error".into(), Value::String(e.to_string()));
            }
        }
        m.insert(
            "lower_max_set_size".into(),
            Value::Number(max_set_size as f64),
        );
        let value = Value::Object(m);
        lock_recover(&self.results).insert(result_key, value.clone());
        Ok((value, CacheStatus::Miss))
    }

    /// The §4 distributed estimators (Eq. 10–13/15) against the optimal
    /// background schedule.
    fn estimate(&self, request: &Request) -> Result<Value, ServiceError> {
        let reference = request
            .topology
            .as_ref()
            .ok_or_else(|| ServiceError::bad_request("this query requires a `topology`"))?;
        let resolved = self.resolve(reference)?;
        let (new_path, flows) = self.materialize(&resolved, &request.background, &request.path)?;
        let model: &(dyn LinkRateModel + Send + Sync) = &*resolved.model;
        let idle = if flows.is_empty() {
            IdleMap::from_ratios(vec![1.0; model.topology().num_nodes()])
        } else {
            let (_, schedule) =
                awb_core::feasibility::min_airtime(&model, &flows).map_err(core_error)?;
            IdleMap::from_schedule(&model, &schedule)
        };
        let hops = Hop::for_path(&model, &idle, &new_path).ok_or_else(|| {
            ServiceError::bad_request("path contains a dead link (no supported rate)")
        })?;
        let mut estimates = Map::new();
        for estimator in Estimator::ALL {
            estimates.insert(
                estimator.label().replace(' ', "_"),
                Value::Number(estimator.estimate(&model, &hops)),
            );
        }
        let hop_rows: Vec<Value> = hops
            .iter()
            .map(|h| {
                let mut row = Map::new();
                row.insert("link".into(), Value::Number(h.link.index() as f64));
                row.insert("rate_mbps".into(), Value::Number(h.rate.as_mbps()));
                row.insert("idle".into(), Value::Number(h.idle));
                Value::Object(row)
            })
            .collect();
        let mut m = Map::new();
        m.insert("estimates".into(), Value::Object(estimates));
        m.insert("hops".into(), Value::Array(hop_rows));
        Ok(Value::Object(m))
    }
}

/// Renders an [`AvailableBandwidth`] as the `result` payload.
fn render_available_bandwidth(out: &AvailableBandwidth) -> Value {
    let mut m = Map::new();
    m.insert("bandwidth_mbps".into(), Value::Number(out.bandwidth_mbps()));
    m.insert("num_sets".into(), Value::Number(out.num_sets() as f64));
    m.insert(
        "universe".into(),
        Value::Array(
            out.universe()
                .iter()
                .map(|l| Value::Number(l.index() as f64))
                .collect(),
        ),
    );
    m.insert(
        "airtime_shadow_price".into(),
        Value::Number(out.airtime_shadow_price()),
    );
    m.insert(
        "bottleneck_links".into(),
        Value::Array(
            out.bottleneck_links()
                .into_iter()
                .map(|(l, scarcity)| {
                    let mut row = Map::new();
                    row.insert("link".into(), Value::Number(l.index() as f64));
                    row.insert("scarcity".into(), Value::Number(scarcity));
                    Value::Object(row)
                })
                .collect(),
        ),
    );
    Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use awb_core::available_bandwidth;

    fn scenario_two_request(query: &str) -> Request {
        // Scenario II as a declarative spec: 5-node chain, 4 links,
        // rates {54, 36}, carrier sensing within two hops, plus the
        // rate-specific L1/L4 conflicts (paper Table, §2.4).
        let line = format!(
            r#"{{"query": "{query}", "topology": {{
                "nodes": [[0,0],[50,0],[100,0],[150,0],[200,0]],
                "links": [[0,1],[1,2],[2,3],[3,4]],
                "alone_rates": [[54,36],[54,36],[54,36],[54,36]],
                "conflicts": [[0,1],[0,2],[1,2],[1,3],[2,3]],
                "rate_conflicts": [[0,54,3,54],[0,54,3,36]]
            }},
            "path": [0,1,2,3], "demand_mbps": 10}}"#
        );
        Request::parse(&line).unwrap()
    }

    #[test]
    fn matches_the_direct_library_call_exactly() {
        let engine = Engine::new(EngineConfig::default());
        let request = scenario_two_request("available_bandwidth");
        let (value, status) = engine.handle(&request, None).unwrap();
        assert_eq!(status, Some(CacheStatus::Miss));
        let via_service = value.get("bandwidth_mbps").and_then(Value::as_f64).unwrap();

        let scenario = awb_workloads::ScenarioTwo::new();
        let direct = available_bandwidth(
            scenario.model(),
            &[],
            &scenario.path(),
            &AvailableBandwidthOptions::default(),
        )
        .unwrap();
        assert_eq!(via_service.to_bits(), direct.bandwidth_mbps().to_bits());
        // Paper §2.5: Scenario II's available bandwidth is 16.2 Mbps.
        assert!((via_service - 16.2).abs() < 0.05, "got {via_service}");
    }

    #[test]
    fn second_identical_query_hits_the_result_cache_byte_for_byte() {
        let engine = Engine::new(EngineConfig::default());
        let request = scenario_two_request("available_bandwidth");
        let (first, s1) = engine.handle(&request, None).unwrap();
        let (second, s2) = engine.handle(&request, None).unwrap();
        assert_eq!(s1, Some(CacheStatus::Miss));
        assert_eq!(s2, Some(CacheStatus::Hit));
        assert_eq!(first.to_string(), second.to_string());
        assert_eq!(
            engine
                .metrics
                .result_cache_hits
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn same_universe_different_demand_reuses_the_set_pool() {
        let engine = Engine::new(EngineConfig::default());
        let mut request = scenario_two_request("available_bandwidth");
        request.background = vec![FlowSpec {
            path: vec![0, 1, 2, 3],
            demand_mbps: 1.0,
        }];
        let (_, s1) = engine.handle(&request, None).unwrap();
        assert_eq!(s1, Some(CacheStatus::Miss));
        request.background[0].demand_mbps = 2.0;
        let (_, s2) = engine.handle(&request, None).unwrap();
        assert_eq!(s2, Some(CacheStatus::SetsHit));
    }

    #[test]
    fn admit_compares_against_the_lp_value() {
        let engine = Engine::new(EngineConfig::default());
        let admit_low = scenario_two_request("admit"); // demand 10 < 16.2
        let (value, _) = engine.handle(&admit_low, None).unwrap();
        assert_eq!(value.get("admitted").and_then(Value::as_bool), Some(true));
        let mut admit_high = scenario_two_request("admit");
        admit_high.demand_mbps = Some(20.0);
        let (value, status) = engine.handle(&admit_high, None).unwrap();
        assert_eq!(value.get("admitted").and_then(Value::as_bool), Some(false));
        // Both admits share one cached LP answer.
        assert_eq!(status, Some(CacheStatus::Hit));
    }

    #[test]
    fn register_then_query_by_hash() {
        let engine = Engine::new(EngineConfig::default());
        let mut register = scenario_two_request("register_topology");
        register.path = Vec::new();
        let (value, _) = engine.handle(&register, None).unwrap();
        let hash = value
            .get("topology_hash")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        assert_eq!(value.get("num_links").and_then(Value::as_u64), Some(4));

        let line = format!(
            r#"{{"query": "available_bandwidth", "topology": "{hash}", "path": [0,1,2,3]}}"#
        );
        let request = Request::parse(&line).unwrap();
        let (answer, _) = engine.handle(&request, None).unwrap();
        assert!(
            answer
                .get("bandwidth_mbps")
                .and_then(Value::as_f64)
                .unwrap()
                > 16.0
        );

        let unknown = Request::parse(
            r#"{"query": "available_bandwidth", "topology": "deadbeefdeadbeef", "path": [0]}"#,
        )
        .unwrap();
        let err = engine.handle(&unknown, None).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownTopology);
    }

    #[test]
    fn bounds_and_estimate_answer() {
        let engine = Engine::new(EngineConfig::default());
        let bounds = scenario_two_request("bounds");
        let (value, _) = engine.handle(&bounds, None).unwrap();
        let upper = value.get("upper_mbps").and_then(Value::as_f64).unwrap();
        // Eq. 9 upper bound must dominate the Eq. 6 exact value (16.2).
        assert!(upper >= 16.2 - 0.05, "upper bound {upper} too small");
        let lower = value.get("lower_mbps").and_then(Value::as_f64).unwrap();
        assert!(lower <= upper + 1e-9);

        let estimate = scenario_two_request("estimate");
        let (value, _) = engine.handle(&estimate, None).unwrap();
        let estimates = value.get("estimates").and_then(Value::as_object).unwrap();
        assert_eq!(estimates.len(), Estimator::ALL.len());
        assert!(estimates.values().all(|v| v.as_f64().is_some()));
        let hops = value.get("hops").and_then(Value::as_array).unwrap();
        assert_eq!(hops.len(), 4);
    }

    #[test]
    fn an_elapsed_deadline_rejects_the_request() {
        let engine = Engine::new(EngineConfig::default());
        let request = scenario_two_request("available_bandwidth");
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = engine.handle(&request, Some(past)).unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
        assert_eq!(
            engine
                .metrics
                .deadline_exceeded
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn colgen_engine_matches_enumeration_and_reuses_its_oracle() {
        let enumerating = Engine::new(EngineConfig::default());
        let colgen = Engine::new(EngineConfig {
            solver: SolverKind::ColumnGeneration,
            ..EngineConfig::default()
        });
        let request = scenario_two_request("available_bandwidth");
        let (full, s_full) = enumerating.handle(&request, None).unwrap();
        let (cg, s_cg) = colgen.handle(&request, None).unwrap();
        assert_eq!(s_full, Some(CacheStatus::Miss));
        assert_eq!(s_cg, Some(CacheStatus::Miss));
        let full_bw = full.get("bandwidth_mbps").and_then(Value::as_f64).unwrap();
        let cg_bw = cg.get("bandwidth_mbps").and_then(Value::as_f64).unwrap();
        assert!((full_bw - cg_bw).abs() < 1e-6, "{full_bw} vs {cg_bw}");
        // num_sets reports the restricted master's column count, which on
        // a topology this small may exceed the dominance-pruned full pool
        // (the singleton seeds are dominated columns).
        assert!(cg.get("num_sets").and_then(Value::as_u64).unwrap() > 0);

        // An admission sequence on the same topology and universe reuses
        // the compiled oracle and warm column pool (bypassing the result
        // cache by varying the demand).
        let mut admit = scenario_two_request("admit");
        admit.background = vec![FlowSpec {
            path: vec![0, 1, 2, 3],
            demand_mbps: 1.0,
        }];
        let (_, s1) = colgen.handle(&admit, None).unwrap();
        admit.background[0].demand_mbps = 2.0;
        let (value, s2) = colgen.handle(&admit, None).unwrap();
        assert_eq!(s1, Some(CacheStatus::SetsHit));
        assert_eq!(s2, Some(CacheStatus::SetsHit));
        assert_eq!(value.get("admitted").and_then(Value::as_bool), Some(true));
    }

    /// Two-component declarative fixture for the update tests: three
    /// node-disjoint parallel links, links 0 and 1 in declared conflict
    /// (one component), link 2 independent (its own component).
    fn two_component_spec(rates2: &str) -> String {
        format!(
            r#"{{
                "nodes": [[0,0],[50,0],[0,100],[50,100],[0,200],[50,200]],
                "links": [[0,1],[2,3],[4,5]],
                "alone_rates": [[54],[54],{rates2}],
                "conflicts": [[0,1]]
            }}"#
        )
    }

    /// An `available_bandwidth` request for path `[0]` whose background
    /// flows pull links 1 and 2 into the universe, so one compiled
    /// instance covers both components.
    fn two_component_query(topology_hash: &str) -> Request {
        Request::parse(&format!(
            r#"{{"query": "available_bandwidth", "topology": "{topology_hash}",
                 "background": [{{"path": [1], "demand_mbps": 0.5}},
                                {{"path": [2], "demand_mbps": 0.5}}],
                 "path": [0]}}"#
        ))
        .unwrap()
    }

    /// Registers `spec` on `engine` and returns its topology hash.
    fn register_spec(engine: &Engine, spec: &str) -> String {
        let register = Request::parse(&format!(
            r#"{{"query": "register_topology", "topology": {spec}}}"#
        ))
        .unwrap();
        let (value, _) = engine.handle(&register, None).unwrap();
        value
            .get("topology_hash")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    }

    /// Sends an `update` with `delta` against `hash`; returns the reply.
    fn send_update(engine: &Engine, hash: &str, delta: &str) -> Value {
        let update = Request::parse(&format!(
            r#"{{"query": "update", "topology": "{hash}", "delta": {delta}}}"#
        ))
        .unwrap();
        let (out, s) = engine.handle(&update, None).unwrap();
        assert_eq!(s, Some(CacheStatus::Miss));
        // The update itself never touches instances.
        assert_eq!(
            out.get("instances_patched").and_then(Value::as_u64),
            Some(0)
        );
        out
    }

    /// A top-level `stats` counter.
    fn stat(engine: &Engine, name: &str) -> Option<u64> {
        engine.stats_value().get(name).and_then(Value::as_u64)
    }

    /// The answer of an engine that never saw an update, handed `spec`
    /// directly.
    fn cold_answer(spec: &str, query: impl Fn(&str) -> Request, options: EngineConfig) -> String {
        let cold = Engine::new(options);
        let hash = register_spec(&cold, spec);
        let (answer, s) = cold.handle(&query(&hash), None).unwrap();
        assert_eq!(s, Some(CacheStatus::Miss));
        answer.to_string()
    }

    #[test]
    fn update_patches_cached_instances_and_matches_fresh_compile() {
        let config = EngineConfig {
            decompose: true,
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        let hash = register_spec(&engine, &two_component_spec("[54]"));
        // Warm one instance over the full universe.
        let (_, s) = engine.handle(&two_component_query(&hash), None).unwrap();
        assert_eq!(s, Some(CacheStatus::Miss));

        // Patch link 2's rate list: only its singleton component is dirty.
        let out = send_update(&engine, &hash, r#"{"rate_changed_links": [[2, [36]]]}"#);
        let reuse = out.get("reuse").unwrap();
        assert_eq!(reuse.get("units_reused").and_then(Value::as_u64), Some(0));
        assert_eq!(reuse.get("units_compiled").and_then(Value::as_u64), Some(0));
        let new_hash = out
            .get("topology_hash")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        assert_ne!(new_hash, hash);
        assert_eq!(stat(&engine, "instances_patched"), Some(0));

        // The first query on the patched topology misses the cache and
        // patches the parent's instance: the clean component is reused,
        // the dirty one recompiled.
        let (patched_answer, s) = engine
            .handle(&two_component_query(&new_hash), None)
            .unwrap();
        assert_eq!(s, Some(CacheStatus::Miss));
        assert_eq!(stat(&engine, "updates"), Some(1));
        assert_eq!(stat(&engine, "instances_patched"), Some(1));
        assert_eq!(stat(&engine, "delta_units_reused"), Some(1));
        assert_eq!(stat(&engine, "delta_units_recompiled"), Some(1));

        // Byte-identical to a cold engine handed the post-delta spec, which
        // hashes like the patched one.
        let cold = cold_answer(&two_component_spec("[36]"), two_component_query, config);
        assert_eq!(patched_answer.to_string(), cold);
        assert_eq!(
            register_spec(&Engine::new(config), &two_component_spec("[36]")),
            new_hash
        );
    }

    #[test]
    fn a_query_whose_universe_the_parent_never_cached_compiles_cold() {
        let config = EngineConfig {
            decompose: true,
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        let hash = register_spec(&engine, &two_component_spec("[54]"));
        // Warm only the single-link universe {0}.
        let single = |hash: &str| {
            Request::parse(&format!(
                r#"{{"query": "available_bandwidth", "topology": "{hash}", "path": [0]}}"#
            ))
            .unwrap()
        };
        let (_, s) = engine.handle(&single(&hash), None).unwrap();
        assert_eq!(s, Some(CacheStatus::Miss));
        let out = send_update(&engine, &hash, r#"{"rate_changed_links": [[2, [36]]]}"#);
        let new_hash = out.get("topology_hash").and_then(Value::as_str).unwrap();

        // The full universe {0, 1, 2} was never compiled on the parent.
        let (answer, s) = engine.handle(&two_component_query(new_hash), None).unwrap();
        assert_eq!(s, Some(CacheStatus::Miss));
        assert_eq!(stat(&engine, "instances_patched"), Some(0));
        assert_eq!(stat(&engine, "delta_units_recompiled"), Some(0));
        let cold = cold_answer(&two_component_spec("[36]"), two_component_query, config);
        assert_eq!(answer.to_string(), cold);
    }

    #[test]
    fn moving_a_node_away_and_back_hits_the_original_instance() {
        let engine = Engine::new(EngineConfig {
            decompose: true,
            ..EngineConfig::default()
        });
        let a = register_spec(&engine, &two_component_spec("[54]"));
        let mut query = two_component_query(&a);
        let (_, s) = engine.handle(&query, None).unwrap();
        assert_eq!(s, Some(CacheStatus::Miss));

        // A → B → A: node 5 (link 2's receiver) leaves and returns.
        let b = send_update(&engine, &a, r#"{"moved_nodes": [[5, 60.0, 200.0]]}"#);
        let b = b.get("topology_hash").and_then(Value::as_str).unwrap();
        assert_ne!(b, a);
        let back = send_update(&engine, b, r#"{"moved_nodes": [[5, 50.0, 200.0]]}"#);
        assert_eq!(
            back.get("topology_hash").and_then(Value::as_str),
            Some(a.as_str())
        );

        // A fresh demand on A skips the result cache but finds A's instance.
        query.background[0].demand_mbps = 0.25;
        let (_, s) = engine.handle(&query, None).unwrap();
        assert_eq!(s, Some(CacheStatus::SetsHit));
        assert_eq!(stat(&engine, "instances_patched"), Some(0));
        assert_eq!(stat(&engine, "updates"), Some(2));
    }

    #[test]
    fn replaying_an_update_hits_the_result_cache() {
        let engine = Engine::new(EngineConfig {
            decompose: true,
            ..EngineConfig::default()
        });
        let register = Request::parse(&format!(
            r#"{{"query": "register_topology", "topology": {}}}"#,
            two_component_spec("[54]")
        ))
        .unwrap();
        let (value, _) = engine.handle(&register, None).unwrap();
        let hash = value.get("topology_hash").and_then(Value::as_str).unwrap();
        let update = Request::parse(&format!(
            r#"{{"query": "update", "topology": "{hash}",
                 "delta": {{"moved_nodes": [[3, 160.0, 10.0]]}}}}"#
        ))
        .unwrap();
        let (first, s1) = engine.handle(&update, None).unwrap();
        let (second, s2) = engine.handle(&update, None).unwrap();
        assert_eq!(s1, Some(CacheStatus::Miss));
        assert_eq!(s2, Some(CacheStatus::Hit));
        assert_eq!(first.to_string(), second.to_string());
        // A different delta against the same base is NOT a replay.
        let other = Request::parse(&format!(
            r#"{{"query": "update", "topology": "{hash}",
                 "delta": {{"moved_nodes": [[3, 170.0, 10.0]]}}}}"#
        ))
        .unwrap();
        let (_, s3) = engine.handle(&other, None).unwrap();
        assert_eq!(s3, Some(CacheStatus::Miss));
    }

    #[test]
    fn update_results_live_in_the_bounded_model_cache() {
        let engine = Engine::new(EngineConfig {
            model_cache_capacity: 2,
            ..EngineConfig::default()
        });
        let root = register_spec(&engine, &two_component_spec("[54]"));
        let update = |from: &str, x: f64| {
            Request::parse(&format!(
                r#"{{"query": "update", "topology": "{from}",
                     "delta": {{"moved_nodes": [[5, {x}, 200.0]]}}}}"#
            ))
            .unwrap()
        };
        let hash_of = |v: &Value| {
            v.get("topology_hash")
                .and_then(Value::as_str)
                .unwrap()
                .to_string()
        };
        let first = update(&root, 51.0);
        let (first_reply, _) = engine.handle(&first, None).unwrap();
        let mut chain = vec![hash_of(&first_reply)];
        for x in [52.0, 53.0, 54.0] {
            let from = chain.last().unwrap().clone();
            let (reply, s) = engine.handle(&update(&from, x), None).unwrap();
            assert_eq!(s, Some(CacheStatus::Miss));
            chain.push(hash_of(&reply));
        }
        // Only the registered root is pinned; the updates share the LRU.
        assert_eq!(lock_recover(&engine.registry).len(), 1);
        assert!(lock_recover(&engine.models).len() <= 2);
        let single = |hash: &str| {
            Request::parse(&format!(
                r#"{{"query": "available_bandwidth", "topology": "{hash}", "path": [0]}}"#
            ))
            .unwrap()
        };
        assert!(engine.handle(&single(&chain[3]), None).is_ok());
        let gone = engine.handle(&single(&chain[0]), None).unwrap_err();
        assert_eq!(gone.code, ErrorCode::UnknownTopology);
        // Replaying the first update rebuilds its evicted topology.
        let (replayed, s) = engine.handle(&first, None).unwrap();
        assert_eq!(s, Some(CacheStatus::Miss));
        assert_eq!(replayed.to_string(), first_reply.to_string());
        assert!(engine.handle(&single(&chain[0]), None).is_ok());
    }

    #[test]
    fn update_of_a_sinr_topology_moves_nodes_and_stays_queryable() {
        let config = EngineConfig {
            decompose: true,
            solver: SolverKind::ColumnGeneration,
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        let spec = |far: &str| {
            format!(r#"{{"model": "sinr", "nodes": [[0,0],[40,0],{far}], "links": [[0,1],[2,3]]}}"#)
        };
        // Path [0] with background on link 1: one instance over both pairs.
        let query = |hash: &str| {
            Request::parse(&format!(
                r#"{{"query": "available_bandwidth", "topology": "{hash}",
                     "background": [{{"path": [1], "demand_mbps": 0.5}}], "path": [0]}}"#
            ))
            .unwrap()
        };
        let hash = register_spec(&engine, &spec("[800,0],[840,0]"));
        let (_, s) = engine.handle(&query(&hash), None).unwrap();
        assert_eq!(s, Some(CacheStatus::Miss));

        // Nudge the far pair; the near pair's component is untouched.
        let out = send_update(
            &engine,
            &hash,
            r#"{"moved_nodes": [[2, 810.0, 0.0], [3, 850.0, 0.0]]}"#,
        );
        let new_hash = out.get("topology_hash").and_then(Value::as_str).unwrap();
        let (answer, s) = engine.handle(&query(new_hash), None).unwrap();
        assert_eq!(s, Some(CacheStatus::Miss));
        assert_eq!(stat(&engine, "instances_patched"), Some(1));
        assert_eq!(stat(&engine, "delta_units_reused"), Some(1));
        assert_eq!(stat(&engine, "delta_units_recompiled"), Some(1));
        assert!(
            answer
                .get("bandwidth_mbps")
                .and_then(Value::as_f64)
                .unwrap()
                > 0.0
        );
        let cold = cold_answer(&spec("[810,0],[850,0]"), query, config);
        assert_eq!(answer.to_string(), cold);
    }

    #[test]
    fn infeasible_background_is_a_structured_error() {
        let engine = Engine::new(EngineConfig::default());
        let mut request = scenario_two_request("available_bandwidth");
        request.background = vec![FlowSpec {
            path: vec![0, 1, 2, 3],
            demand_mbps: 1000.0,
        }];
        let err = engine.handle(&request, None).unwrap_err();
        assert_eq!(err.code, ErrorCode::InfeasibleBackground);
    }

    #[test]
    fn solve_options_carry_every_solver_field_of_the_config() {
        let config = EngineConfig {
            enumeration_engine: EngineKind::Compiled(3),
            solver: SolverKind::ColumnGeneration,
            decompose: true,
            pricing: PricingMode::ExactOnly,
            stab_alpha: 0.25,
            pricing_threads: 4,
            column_pool_cap: 17,
            ..EngineConfig::default()
        };
        let defaults = AvailableBandwidthOptions::default();
        let options = config.solve_options();
        assert_ne!(options.enumeration.engine, defaults.enumeration.engine);
        assert_eq!(options.enumeration.engine, EngineKind::Compiled(3));
        assert_eq!(options.solver, SolverKind::ColumnGeneration);
        assert!(options.decompose);
        assert_eq!(options.pricing, PricingMode::ExactOnly);
        assert_eq!(options.stab_alpha.to_bits(), 0.25f64.to_bits());
        assert_eq!(options.pricing_threads, 4);
        assert_eq!(options.column_pool_cap, 17);
        // What the config does not name keeps the library default, and an
        // engine runs under exactly these options.
        assert_eq!(
            options.dust_epsilon.to_bits(),
            defaults.dust_epsilon.to_bits()
        );
        assert_eq!(
            options.enumeration.max_set_size,
            defaults.enumeration.max_set_size
        );
        assert_eq!(Engine::new(config).options, options);
        assert_eq!(EngineConfig::default().solve_options(), defaults);
    }
}

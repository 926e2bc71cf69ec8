//! Delayed column generation for the §2.5 LP (Eq. 6).
//!
//! Instead of enumerating every admissible rate-coupled independent set up
//! front (exponential in links) and handing the full pool to the simplex,
//! this module keeps a **restricted master problem** over a small seed pool
//! (per-link singletons plus a greedy cover), solves it, and asks a
//! [`MaxWeightOracle`] — a branch-and-bound maximum-weight rated-set search
//! over the compiled conflict bitmasks — for the column with the most
//! positive reduced cost under the master's link duals. Columns are appended
//! to the warm [`IncrementalSolver`] (a few pivots per round instead of a
//! from-scratch two-phase solve) until the oracle certifies that **no**
//! admissible set prices in, at which point LP duality guarantees the
//! restricted optimum equals the full-enumeration optimum.
//!
//! The solve runs in two stages:
//!
//! 1. **Stage A (feasibility)** — per component, minimize total airtime
//!    `Σ λ` subject to every demanded link being delivered, pricing columns
//!    in by delivery duals (`enter iff Σ y_e R_S[e] > 1`). The seed
//!    singletons make this master feasible whenever the demands are
//!    schedulable at all; if the certified minimum airtime exceeds 1 the
//!    background is infeasible — exactly the condition
//!    [`CoreError::BackgroundInfeasible`] reports.
//! 2. **Stage B (throughput)** — one joint master maximizing `f` with a unit
//!    time budget per component and the Eq. 6 delivery rows, seeded with the
//!    stage-A pool (so it starts feasible), pricing per component with
//!    `enter iff Σ scarcity_e · R_S[e] > airtime dual`.
//!
//! Three levers keep the pricing loop fast at the 64–256-link frontier,
//! none of which may change the certified optimum:
//!
//! - **Heuristic-first pricing** ([`PricingMode::HeuristicFirst`]): a
//!   greedy-plus-local-search constructor proposes a column in near-linear
//!   time; only
//!   when its value under the *raw* duals fails the reduced-cost test (or it
//!   is already pooled) does the exact branch-and-bound run. Convergence is
//!   only ever declared on an exact-search failure, so the optimality
//!   certificate rests on the exact oracle alone.
//! - **Dual stabilization** (`stab_alpha`): the heuristic proposal is
//!   steered by smoothed duals `α·y + (1−α)·y_prev`, damping the dual
//!   oscillation that inflates round counts; accept tests always use raw
//!   duals.
//! - **Parallel per-component pricing** (`pricing_threads`): stage-A solves
//!   and stage-B pricing fan out across conflict components with the
//!   deterministic chunked-merge discipline of the enumeration engine, so
//!   answers are bit-identical for any thread count.
//!
//! Every pricing round is deterministic (oracle ties break first-found,
//! duplicate proposals fall back to the exact search), so repeated runs
//! produce identical columns, bases, and duals. After convergence the answer
//! is **re-solved canonically**: the optimal support columns are extracted,
//! sorted canonically, and a fresh minimal master is solved from scratch —
//! making the reported optimum, schedule, and duals a pure function of the
//! converged support rather than of the column-discovery path, which is what
//! lets heuristic-first and exact-only pricing certify bit-identical
//! answers.

use std::cmp::Ordering;

use crate::available::{
    link_universe, AvailableBandwidth, AvailableBandwidthOptions, Master, PricingMode,
};
use crate::error::CoreError;
use crate::flow::Flow;
use awb_lp::{Direction, IncrementalSolver, Problem, Relation, SolverOptions, VarId};
use awb_net::{LinkId, LinkRateModel, Path};
use awb_sets::{
    price_component, price_components, MaxWeightOracle, PriceScratch, PricingRequest, RatedSet,
};

/// Reduced costs must clear this margin before a column is generated; keeps
/// the loop from chasing LP-tolerance noise.
const PRICE_TOL: f64 = 1e-7;

/// Slack allowed on the stage-A airtime certificate, matching the simplex
/// phase-1 infeasibility tolerance.
const FEAS_TOL: f64 = 1e-7;

/// Hard cap on pricing rounds per master — a backstop against numerical
/// stalling, far above anything a real topology needs.
const MAX_ROUNDS: usize = 10_000;

/// λ values at or below this are not part of the converged support the
/// canonical final re-solve is built over (they are LP-arithmetic noise, far
/// below any meaningful time share).
const SUPPORT_EPS: f64 = 1e-12;

/// Counters describing a column-generation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColgenStats {
    /// Master re-optimizations driven by the pricing oracle (both stages).
    pub pricing_rounds: usize,
    /// Columns the oracle generated beyond the seed pool.
    pub columns_generated: usize,
    /// Total simplex pivots across every master, including warm restarts
    /// and the canonical final re-solve.
    pub pivots: usize,
    /// Generated columns that came from the heuristic constructor (the
    /// exact search never ran for these).
    pub heuristic_columns: usize,
    /// Exact branch-and-bound invocations — the expensive certifier.
    /// Under [`PricingMode::ExactOnly`] every pricing call counts here.
    pub exact_calls: usize,
    /// Positions the exact branch-and-bound branched at, summed over its
    /// calls ([`awb_sets::PricingAnswer::exact_nodes`]): its work, counted
    /// the same on every host.
    pub exact_nodes: u64,
    /// Wall-clock nanoseconds spent in the heuristic constructor.
    pub heuristic_ns: u64,
    /// Wall-clock nanoseconds spent in the exact branch-and-bound.
    pub exact_ns: u64,
    /// Largest column count any stage-B master reached (all components
    /// together) — the pool-size figure
    /// [`AvailableBandwidthOptions::column_pool_cap`] bounds.
    pub pool_peak: usize,
    /// Columns evicted from stage-B masters by the pool cap.
    pub pool_evicted: usize,
}

impl ColgenStats {
    /// Accumulates another run's (or component's) counters into `self`.
    fn absorb(&mut self, other: ColgenStats) {
        self.pricing_rounds += other.pricing_rounds;
        self.columns_generated += other.columns_generated;
        self.pivots += other.pivots;
        self.heuristic_columns += other.heuristic_columns;
        self.exact_calls += other.exact_calls;
        self.exact_nodes += other.exact_nodes;
        self.heuristic_ns += other.heuristic_ns;
        self.exact_ns += other.exact_ns;
        // Peaks are concurrent high-water marks, not additive counts.
        self.pool_peak = self.pool_peak.max(other.pool_peak);
        self.pool_evicted += other.pool_evicted;
    }
}

/// The solver-tuning slice of [`AvailableBandwidthOptions`] the pricing loop
/// consumes; copied into a [`crate::CompiledInstance`] at compile time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PricingTuning {
    pub(crate) mode: PricingMode,
    pub(crate) stab_alpha: f64,
    pub(crate) threads: usize,
    /// Per-component stage-B pool cap; `0` = unbounded.
    pub(crate) pool_cap: usize,
}

impl PricingTuning {
    pub(crate) fn from_options(options: &AvailableBandwidthOptions) -> PricingTuning {
        PricingTuning {
            mode: options.pricing,
            // Clamp away of nonsense values rather than erroring: smoothing
            // is a performance knob, never a correctness one.
            stab_alpha: if options.stab_alpha.is_finite() {
                options.stab_alpha.clamp(f64::MIN_POSITIVE, 1.0)
            } else {
                1.0
            },
            threads: options.pricing_threads,
            pool_cap: options.column_pool_cap,
        }
    }

    fn heuristic_first(&self) -> bool {
        self.mode == PricingMode::HeuristicFirst
    }

    fn stabilized(&self) -> bool {
        self.heuristic_first() && self.stab_alpha < 1.0
    }

    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.threads
        }
    }
}

/// Result of a column-generation solve: the Eq. 6 outcome plus run
/// counters.
#[derive(Debug, Clone)]
pub struct ColgenOutcome {
    /// The solved LP, identical in meaning to [`crate::available_bandwidth`].
    pub result: AvailableBandwidth,
    /// Pricing-loop counters.
    pub stats: ColgenStats,
}

/// Column-generation counterpart of [`crate::available_bandwidth`]: same
/// optimum and dual prices, but the independent-set pool is priced in on
/// demand instead of enumerated exhaustively.
///
/// Honors `options.decompose` (per-component budgets, like the enumeration
/// path) and `options.dust_epsilon`; `options.enumeration` is unused — no
/// enumeration happens.
///
/// # Errors
///
/// As [`crate::available_bandwidth`].
pub fn available_bandwidth_colgen<M: LinkRateModel>(
    model: &M,
    background: &[Flow],
    new_path: &Path,
    options: &AvailableBandwidthOptions,
) -> Result<ColgenOutcome, CoreError> {
    let universe = link_universe(background, new_path);
    crate::session::CompiledInstance::compile(model, &universe, options)?
        .query_colgen(model, background, new_path)
}

/// Colgen-side runtime guards (active only with the `debug-invariants`
/// feature): the dual-derived pricing weights handed to the max-weight
/// oracle must be finite and non-negative — the oracle's branch-and-bound
/// pruning assumes both, and a NaN weight silently disables pruning and can
/// certify a bogus "optimal" master.
#[cfg(feature = "debug-invariants")]
fn assert_pricing_weights(weights: &[f64]) {
    debug_assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "pricing weights must be finite and non-negative: {weights:?}"
    );
}

/// The master objective must stay finite after every re-solve (active only
/// with the `debug-invariants` feature).
#[cfg(feature = "debug-invariants")]
fn assert_finite_objective(objective: f64) {
    debug_assert!(
        objective.is_finite(),
        "master LP produced a non-finite objective: {objective}"
    );
}

/// Seeds one component's pool: every live link's max-rate singleton, and a
/// greedy cover of the live links by oracle calls.
pub(crate) fn seed_pool<M: LinkRateModel>(model: &M, oracle: &MaxWeightOracle) -> Vec<RatedSet> {
    let mut pool: Vec<RatedSet> = Vec::new();
    for &link in oracle.links() {
        // Component links are distinct; a dead link has no singleton.
        if let Some(rate) = model.max_alone_rate(link) {
            pool.push(RatedSet::new(vec![(link, rate)]));
        }
    }
    // Greedy cover: repeatedly ask for the heaviest set over the still
    // uncovered links; wide sets make the initial master's budget realistic.
    let mut covered = vec![false; oracle.links().len()];
    let mut scratch = oracle.new_scratch();
    let mut weights = vec![0.0f64; oracle.links().len()];
    for _ in 0..oracle.links().len() {
        for (w, &c) in weights.iter_mut().zip(&covered) {
            *w = if c { 0.0 } else { 1.0 };
        }
        let Some((set, _)) = oracle.max_weight_set_with(model, &weights, &mut scratch) else {
            break;
        };
        let mut progressed = false;
        for (i, &l) in oracle.links().iter().enumerate() {
            if !covered[i] && set.contains(l) {
                covered[i] = true;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
        if !pool.contains(&set) {
            pool.push(set);
        }
        if covered.iter().all(|&c| c) {
            break;
        }
    }
    pool
}

/// Stage A for one component: certify the background demands schedulable
/// within the unit budget, generating delivery columns along the way.
/// Returns this component's counters so the parallel driver can merge them
/// in component order.
#[allow(clippy::too_many_arguments)]
fn stage_a<M: LinkRateModel>(
    model: &M,
    universe: &[LinkId],
    demand: &[f64],
    component: &[LinkId],
    oracle: &MaxWeightOracle,
    pool: &mut Vec<RatedSet>,
    scratch: &mut PriceScratch,
    tuning: &PricingTuning,
) -> Result<ColgenStats, CoreError> {
    let mut stats = ColgenStats::default();
    // Universe indices of this component's demanded links.
    let mut demanded: Vec<usize> = Vec::with_capacity(component.len());
    for l in component {
        let idx = universe
            .binary_search(l)
            .map_err(|_| CoreError::Invariant("component is a subset of the universe"))?;
        if demand[idx] > 0.0 {
            demanded.push(idx);
        }
    }
    if demanded.is_empty() {
        return Ok(stats);
    }
    let mut lp = Problem::new(Direction::Minimize);
    let vars: Vec<VarId> = (0..pool.len())
        .map(|i| lp.add_var(format!("a{i}"), 1.0))
        .collect();
    for (row, &idx) in demanded.iter().enumerate() {
        let link = universe[idx];
        let terms: Vec<(VarId, f64)> = pool
            .iter()
            .zip(&vars)
            .filter_map(|(set, &var)| set.rate_of(link).map(|r| (var, r.as_mbps())))
            .collect();
        lp.add_constraint(&terms, Relation::Ge, demand[idx])?;
        debug_assert_eq!(row, lp.num_constraints() - 1);
    }
    let mut inc = IncrementalSolver::new(&lp, SolverOptions::default()).map_err(CoreError::from)?;
    let mut weights = vec![0.0f64; oracle.links().len()];
    for _round in 0..MAX_ROUNDS {
        let sol = inc.solution();
        // Delivery duals: in the minimize direction a binding >= row prices
        // positive — the airtime cost of one more Mbps on that link.
        weights.fill(0.0);
        for (row, &idx) in demanded.iter().enumerate() {
            let link = universe[idx];
            if let Some(pos) = oracle.links().iter().position(|&l| l == link) {
                weights[pos] = sol.dual(row).max(0.0);
            }
        }
        #[cfg(feature = "debug-invariants")]
        assert_pricing_weights(&weights);
        // Stage-A duals are not smoothed (the feasibility loop is short);
        // heuristic-first still applies.
        let request = PricingRequest {
            oracle,
            raw_weights: &weights,
            search_weights: &weights,
            threshold: 1.0 + PRICE_TOL,
            pool,
        };
        let answer = price_component(model, &request, tuning.heuristic_first(), scratch);
        stats.heuristic_ns += answer.heuristic_ns;
        stats.exact_ns += answer.exact_ns;
        if answer.exact_invoked {
            stats.exact_calls += 1;
            stats.exact_nodes += answer.exact_nodes;
        }
        let Some((set, _value)) = answer.column else {
            break;
        };
        if answer.by_heuristic {
            stats.heuristic_columns += 1;
        }
        let terms: Vec<(usize, f64)> = demanded
            .iter()
            .enumerate()
            .filter_map(|(row, &idx)| set.rate_of(universe[idx]).map(|r| (row, r.as_mbps())))
            .collect();
        inc.add_column(format!("a{}", pool.len()), 1.0, &terms)
            .map_err(CoreError::from)?;
        pool.push(set);
        inc.reoptimize().map_err(CoreError::from)?;
        stats.pricing_rounds += 1;
        stats.columns_generated += 1;
    }
    let airtime = inc.solution().objective();
    stats.pivots += inc.pivots();
    if airtime > 1.0 + FEAS_TOL {
        return Err(CoreError::BackgroundInfeasible);
    }
    Ok(stats)
}

/// Runs stage A over every component, fanning the per-component solves out
/// across `tuning` threads in contiguous chunks. Results (counters and
/// errors) are merged in component order, so the outcome — including which
/// error is reported when several components fail — is identical to the
/// sequential loop for any thread count.
#[allow(clippy::too_many_arguments)]
fn stage_a_all<M: LinkRateModel>(
    model: &M,
    universe: &[LinkId],
    demand: &[f64],
    components: &[Vec<LinkId>],
    oracles: &[&MaxWeightOracle],
    pools: &mut [Vec<RatedSet>],
    scratches: &mut [PriceScratch],
    tuning: &PricingTuning,
    stats: &mut ColgenStats,
) -> Result<(), CoreError> {
    let threads = tuning.resolved_threads().min(components.len().max(1));
    if threads <= 1 || components.len() <= 1 {
        for ci in 0..components.len() {
            let delta = stage_a(
                model,
                universe,
                demand,
                &components[ci],
                oracles[ci],
                &mut pools[ci],
                &mut scratches[ci],
                tuning,
            )?;
            stats.absorb(delta);
        }
        return Ok(());
    }
    let chunk = components.len().div_ceil(threads);
    let mut slots: Vec<Option<Result<ColgenStats, CoreError>>> = Vec::new();
    slots.resize_with(components.len(), || None);
    std::thread::scope(|scope| {
        for ((((comps, orcs), pls), scrs), slts) in components
            .chunks(chunk)
            .zip(oracles.chunks(chunk))
            .zip(pools.chunks_mut(chunk))
            .zip(scratches.chunks_mut(chunk))
            .zip(slots.chunks_mut(chunk))
        {
            scope.spawn(move || {
                for i in 0..comps.len() {
                    slts[i] = Some(stage_a(
                        model,
                        universe,
                        demand,
                        &comps[i],
                        orcs[i],
                        &mut pls[i],
                        &mut scrs[i],
                        tuning,
                    ));
                }
            });
        }
    });
    for slot in slots {
        let delta = slot.ok_or(CoreError::Invariant("every stage-A job completed"))??;
        stats.absorb(delta);
    }
    Ok(())
}

/// Canonical total order on rated sets (shorter first, then couples
/// lexicographically by link id and rate): the order the canonical final
/// master's columns are laid out in, so the answer depends only on *which*
/// columns converged into the support, never on when they were discovered.
fn canonical_set_cmp(a: &RatedSet, b: &RatedSet) -> Ordering {
    let (ac, bc) = (a.couples(), b.couples());
    ac.len().cmp(&bc.len()).then_with(|| {
        for ((la, ra), (lb, rb)) in ac.iter().zip(bc) {
            let by_couple = la
                .cmp(lb)
                .then_with(|| ra.as_mbps().total_cmp(&rb.as_mbps()));
            if by_couple != Ordering::Equal {
                return by_couple;
            }
        }
        Ordering::Equal
    })
}

/// The full two-stage column-generation solve over prepared components and
/// their seed pools. Stage A/B grow `pools` in place; the seed pools are the
/// query-independent part a [`crate::CompiledInstance`] precomputes, the
/// demand vector and everything after it are per-query.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_with_pools<M: LinkRateModel>(
    model: &M,
    universe: &[LinkId],
    components: &[Vec<LinkId>],
    oracles: &[&MaxWeightOracle],
    mut pools: Vec<Vec<RatedSet>>,
    demand: &[f64],
    new_path: &Path,
    dust_epsilon: f64,
    tuning: &PricingTuning,
) -> Result<ColgenOutcome, CoreError> {
    let mut stats = ColgenStats::default();
    let mut scratches: Vec<PriceScratch> = oracles.iter().map(|o| o.new_scratch()).collect();

    // Stage A: per-component feasibility, growing the pools.
    stage_a_all(
        model,
        universe,
        demand,
        components,
        oracles,
        &mut pools,
        &mut scratches,
        tuning,
        &mut stats,
    )?;

    // Stage B: joint throughput master with per-component pricing. A master
    // rebuild (cold start) only happens in the rare case the warm append is
    // refused because phase 1 dropped a redundant row.
    let mut master = Master::build(&pools, components, universe, demand, new_path)?;
    // Per-component weight buffers, reused across rounds. `centers` holds
    // the previous round's raw duals when stabilization is on.
    let mut raw_w: Vec<Vec<f64>> = oracles
        .iter()
        .map(|o| vec![0.0f64; o.links().len()])
        .collect();
    let mut search_w: Vec<Vec<f64>> = raw_w.clone();
    let mut centers: Vec<Vec<f64>> = if tuning.stabilized() {
        raw_w.clone()
    } else {
        Vec::new()
    };
    // Per-component airtime dual; `None` for components without a budget
    // row (empty pool), which take no columns.
    let mut airtimes: Vec<Option<f64>> = vec![None; oracles.len()];
    let mut have_center = false;
    // Per-column "was ever basic" flags, parallel to `pools`: the survivors
    // when the pool cap forces an eviction.
    let mut ever_basic: Vec<Vec<bool>> = pools.iter().map(|p| vec![false; p.len()]).collect();
    stats.pool_peak = stats.pool_peak.max(pools.iter().map(Vec::len).sum());
    for _round in 0..MAX_ROUNDS {
        if tuning.pool_cap > 0 {
            // Mark this master's basic columns, then drop never-basic ones
            // from any component over the cap. Evicted columns stay exact:
            // if the optimum needs one, pricing regenerates it (the oracle
            // certificate never consults the pool).
            let mut evicted_any = false;
            {
                let sol = master.solution();
                for (flags, vars) in ever_basic.iter_mut().zip(master.lambdas()) {
                    for (flag, &var) in flags.iter_mut().zip(vars) {
                        *flag |= sol.value(var) > SUPPORT_EPS;
                    }
                }
            }
            for (pool, flags) in pools.iter_mut().zip(&mut ever_basic) {
                if pool.len() <= tuning.pool_cap {
                    continue;
                }
                let before = pool.len();
                let mut keep = flags.iter().copied();
                pool.retain(|_| keep.next().unwrap_or(true));
                flags.retain(|&f| f);
                if pool.len() < before {
                    stats.pool_evicted += before - pool.len();
                    evicted_any = true;
                }
            }
            if evicted_any {
                stats.pivots += master.pivots();
                master = Master::build(&pools, components, universe, demand, new_path)?;
            }
        }
        let sol = master.solution();
        for (ci, oracle) in oracles.iter().enumerate() {
            airtimes[ci] = master.airtime_dual(&sol, ci);
            if airtimes[ci].is_none() {
                continue;
            }
            for (j, l) in oracle.links().iter().enumerate() {
                let idx = universe
                    .binary_search(l)
                    .map_err(|_| CoreError::Invariant("oracle links are in the universe"))?;
                raw_w[ci][j] = master.scarcity(&sol, idx);
            }
            #[cfg(feature = "debug-invariants")]
            assert_pricing_weights(&raw_w[ci]);
            if tuning.stabilized() {
                if have_center {
                    for j in 0..raw_w[ci].len() {
                        search_w[ci][j] = tuning.stab_alpha * raw_w[ci][j]
                            + (1.0 - tuning.stab_alpha) * centers[ci][j];
                    }
                } else {
                    search_w[ci].copy_from_slice(&raw_w[ci]);
                }
                centers[ci].copy_from_slice(&raw_w[ci]);
            }
        }
        have_center = true;
        let answers = {
            let requests: Vec<PricingRequest<'_>> = (0..oracles.len())
                .map(|ci| PricingRequest {
                    oracle: oracles[ci],
                    raw_weights: &raw_w[ci],
                    search_weights: if tuning.stabilized() {
                        &search_w[ci]
                    } else {
                        &raw_w[ci]
                    },
                    threshold: airtimes[ci].unwrap_or(0.0) + PRICE_TOL,
                    pool: &pools[ci],
                })
                .collect();
            price_components(
                model,
                &requests,
                tuning.heuristic_first(),
                tuning.threads,
                &mut scratches,
            )
        };
        let mut added = false;
        let mut rebuild = false;
        for (ci, answer) in answers.into_iter().enumerate() {
            stats.heuristic_ns += answer.heuristic_ns;
            stats.exact_ns += answer.exact_ns;
            if answer.exact_invoked {
                stats.exact_calls += 1;
                stats.exact_nodes += answer.exact_nodes;
            }
            if airtimes[ci].is_none() {
                continue;
            }
            let Some((set, _value)) = answer.column else {
                // `price_component` only reports "no column" after the exact
                // search failed to price one in — the exactness certificate.
                continue;
            };
            if answer.by_heuristic {
                stats.heuristic_columns += 1;
            }
            rebuild |= !master.add_column(ci, &set, universe)?;
            pools[ci].push(set);
            ever_basic[ci].push(false);
            added = true;
            stats.columns_generated += 1;
        }
        if !added {
            break;
        }
        stats.pool_peak = stats.pool_peak.max(pools.iter().map(Vec::len).sum());
        stats.pricing_rounds += 1;
        if rebuild {
            stats.pivots += master.pivots();
            master = Master::build(&pools, components, universe, demand, new_path)?;
        } else {
            master.reoptimize()?;
        }
        #[cfg(feature = "debug-invariants")]
        assert_finite_objective(master.solution().objective());
    }
    stats.pivots += master.pivots();

    // Duals come from the *converged* master: its priced-out columns pin
    // the dual solution to the one the full-enumeration LP reports, whereas
    // the minimal support master below is dual-degenerate (fewer columns ⟹
    // a larger dual polytope, so the solver may pick a different vertex).
    let converged = master.solution();
    let prices = master.prices(&converged);

    // Canonical final re-solve: extract the converged support (λ above
    // noise), lay its columns out in canonical order, and solve that minimal
    // master from scratch. The reported optimum and schedule become a pure
    // function of the converged support — identical for heuristic-first vs
    // exact-only pricing, any thread count, and any column-discovery order
    // that converges to the same support.
    let support: Vec<Vec<RatedSet>> = pools
        .iter()
        .zip(master.lambdas())
        .map(|(pool, vars)| {
            let mut sup: Vec<RatedSet> = pool
                .iter()
                .zip(vars)
                .filter(|(_, &var)| converged.value(var) > SUPPORT_EPS)
                .map(|(set, _)| set.clone())
                .collect();
            sup.sort_by(canonical_set_cmp);
            sup
        })
        .collect();
    let canonical = Master::build(&support, components, universe, demand, new_path)?;
    stats.pivots += canonical.pivots();
    let num_sets = pools.iter().map(Vec::len).sum();
    let result = canonical.answer(
        &canonical.solution(),
        &support,
        universe,
        dust_epsilon,
        prices,
        num_sets,
        stats.pivots,
    );
    Ok(ColgenOutcome { result, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::available::{available_bandwidth, AvailableBandwidthOptions, SolverKind};
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

    fn colgen_options() -> AvailableBandwidthOptions {
        AvailableBandwidthOptions {
            solver: SolverKind::ColumnGeneration,
            ..AvailableBandwidthOptions::default()
        }
    }

    #[test]
    fn relay_capacity_matches_enumeration() {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(10.0, 0.0);
        let c = t.add_node(20.0, 0.0);
        let ab = t.add_link(a, b).unwrap();
        let bc = t.add_link(b, c).unwrap();
        let m = DeclarativeModel::builder(t)
            .alone_rates(ab, &[r(54.0)])
            .alone_rates(bc, &[r(54.0)])
            .conflict_all(ab, bc)
            .build();
        let p = Path::new(m.topology(), vec![ab, bc]).unwrap();
        let out = available_bandwidth(&m, &[], &p, &colgen_options()).unwrap();
        assert!((out.bandwidth_mbps() - 27.0).abs() < 1e-7);
        assert!(out.schedule().is_valid(&m));
        for &l in p.links() {
            assert!(out.schedule().link_throughput(l) >= 27.0 - 1e-7);
        }
    }

    #[test]
    fn matches_enumeration_with_background_and_duals() {
        let (m, links) = line_model(3, &[r(54.0), r(18.0)], &[(0, 1), (1, 2)]);
        let bg_path = Path::new(m.topology(), vec![links[0]]).unwrap();
        let new_path = Path::new(m.topology(), vec![links[1]]).unwrap();
        for bg in [0.0, 10.0, 27.0] {
            let background = vec![Flow::new(bg_path.clone(), bg).unwrap()];
            let full = available_bandwidth(
                &m,
                &background,
                &new_path,
                &AvailableBandwidthOptions::default(),
            )
            .unwrap();
            let cg = available_bandwidth(&m, &background, &new_path, &colgen_options()).unwrap();
            assert!(
                (full.bandwidth_mbps() - cg.bandwidth_mbps()).abs() < 1e-6,
                "bg {bg}: full {} vs colgen {}",
                full.bandwidth_mbps(),
                cg.bandwidth_mbps()
            );
            assert!((full.airtime_shadow_price() - cg.airtime_shadow_price()).abs() < 1e-6);
            for &l in full.universe() {
                let a = full.link_scarcity(l).unwrap();
                let b = cg.link_scarcity(l).unwrap();
                assert!((a - b).abs() < 1e-6, "link {l:?}: {a} vs {b}");
            }
            assert!(cg.schedule().is_valid(&m));
            assert!(cg.num_sets() <= full.num_sets());
        }
    }

    #[test]
    fn pool_cap_bounds_the_master_and_preserves_the_optimum() {
        // A dense conflict chain with rate choices: stage B prices a pool
        // comfortably larger than the cap below.
        let n = 10;
        let conflicts: Vec<(usize, usize)> = (0..n - 1)
            .map(|i| (i, i + 1))
            .chain((0..n - 2).map(|i| (i, i + 2)))
            .collect();
        let (m, links) = line_model(n, &[r(54.0), r(36.0), r(18.0)], &conflicts);
        let new_path = Path::new(m.topology(), vec![links[0]]).unwrap();
        let background: Vec<Flow> = links[1..]
            .iter()
            .map(|&l| {
                let p = Path::new(m.topology(), vec![l]).unwrap();
                Flow::new(p, 2.0).unwrap()
            })
            .collect();
        let unbounded =
            available_bandwidth_colgen(&m, &background, &new_path, &colgen_options()).unwrap();
        assert_eq!(unbounded.stats.pool_evicted, 0);
        let capped_opts = AvailableBandwidthOptions {
            column_pool_cap: 8,
            ..colgen_options()
        };
        let capped = available_bandwidth_colgen(&m, &background, &new_path, &capped_opts).unwrap();
        // Exactness: the evicting solve certifies the same optimum.
        assert!(
            (capped.result.bandwidth_mbps() - unbounded.result.bandwidth_mbps()).abs() < 1e-6,
            "capped {} vs unbounded {}",
            capped.result.bandwidth_mbps(),
            unbounded.result.bandwidth_mbps()
        );
        assert!(
            capped.stats.pool_evicted > 0,
            "cap 8 never triggered (peak {})",
            capped.stats.pool_peak
        );
        assert!(capped.result.schedule().is_valid(&m));
    }

    #[test]
    fn infeasible_background_is_reported() {
        let (m, links) = line_model(2, &[r(54.0)], &[(0, 1)]);
        let bg_path = Path::new(m.topology(), vec![links[0]]).unwrap();
        let new_path = Path::new(m.topology(), vec![links[1]]).unwrap();
        let background = vec![Flow::new(bg_path, 60.0).unwrap()];
        let err = available_bandwidth(&m, &background, &new_path, &colgen_options()).unwrap_err();
        assert_eq!(err, CoreError::BackgroundInfeasible);
    }

    #[test]
    fn dead_link_on_new_path_gives_zero() {
        let (m0, links) = line_model(2, &[r(54.0)], &[]);
        let mut b = DeclarativeModel::builder(m0.topology().clone());
        b = b.alone_rates(links[0], &[r(54.0)]);
        let m = b.build();
        let p = Path::new(m.topology(), vec![links[1]]).unwrap();
        let out = available_bandwidth(&m, &[], &p, &colgen_options()).unwrap();
        assert_eq!(out.bandwidth_mbps(), 0.0);
    }

    #[test]
    fn decomposed_components_match_enumeration() {
        // Two independent components: {0,1} conflicting, {2} alone.
        let (m, links) = line_model(3, &[r(54.0)], &[(0, 1)]);
        let bg_path = Path::new(m.topology(), vec![links[2]]).unwrap();
        let new_path = Path::new(m.topology(), vec![links[0]]).unwrap();
        let background = vec![Flow::new(bg_path, 20.0).unwrap()];
        let opts_full = AvailableBandwidthOptions {
            decompose: true,
            ..AvailableBandwidthOptions::default()
        };
        let opts_cg = AvailableBandwidthOptions {
            decompose: true,
            ..colgen_options()
        };
        let full = available_bandwidth(&m, &background, &new_path, &opts_full).unwrap();
        let cg = available_bandwidth(&m, &background, &new_path, &opts_cg).unwrap();
        assert!((full.bandwidth_mbps() - cg.bandwidth_mbps()).abs() < 1e-6);
        assert!(cg.schedule().is_valid(&m));
    }
}

//! Maximum-weight rated-set pricing oracles for column generation.
//!
//! Given non-negative per-link weights `w_e` (the link duals of a restricted
//! master LP), [`MaxWeightOracle`] finds the admissible rated set `S`
//! maximizing `sum_{e in S} w_e * R_S[e]` — the most violated column of the
//! Eq. 6 scheduling LP — by branch and bound over the compiled `u64` conflict
//! bitmasks of [`crate::enumerate`]'s bitset engine, instead of enumerating
//! the exponential admissible pool.
//!
//! Three search modes cover the model taxonomy:
//!
//! - **exact** (pairwise-exact models, e.g. declarative conflict tables):
//!   branches over (link, rate) couples; the mask intersection *is* the
//!   admissibility test. The search carries an incremental candidate mask per
//!   include level (`cand_child = cand ∩ compat(couple)`), so membership
//!   tests are O(1) bit probes, and bounds each subtree by a **clique
//!   cover** of the surviving couples, built once per include level: an
//!   admissible set takes at most one couple from each clique of mutually
//!   conflicting couples, so the sum of the cliques' heaviest members bounds
//!   every extension. Exclude steps read that bound in O(1). It is never
//!   looser than summing each remaining link's best surviving couple (the
//!   bound of the tests' reference search), and on a 40-link rate-coupled
//!   draw the search branches at about a sixth of the positions that sum
//!   needs. Seeding the incumbent or splitting a link's rate ladder across
//!   cliques did not pay (see [`ExactSearch`]).
//! - **rate-independent** (e.g. SINR models, where membership decides
//!   admissibility and each member's rate is then lifted): branches over
//!   membership with the lowest-rate couple masks as a sound prefilter, then
//!   confirms joint admissibility through the model and values the node by
//!   lifting every member to its maximum supported rate.
//! - **generic** (neither property): branches over couples with the mask
//!   prefilter, confirming every extension through the model.
//!
//! All three are exact searches: bounds only discard subtrees that cannot
//! strictly improve the incumbent, so the returned set (first best found,
//! links in descending-potential order) is independent of how aggressively
//! they fire. A cheap **greedy + local-search heuristic**
//! ([`MaxWeightOracle::heuristic_max_weight_set_with`]) produces good — not
//! certified — columns in near-linear time; column generation runs it first
//! and falls back to the exact search only when the heuristic column fails
//! the reduced-cost test, which is what [`price_component`] packages.
//!
//! Pricing is a per-conflict-component problem, so [`price_components`] fans
//! the per-component oracle calls out across threads with the deterministic
//! chunked-merge discipline of the enumeration engine: answers are returned
//! in component order and are bit-identical for any thread count.

use crate::compiled::{and_into, clear_bit, set_bit, test_bit, Compiled};
use crate::concurrent::RatedSet;
use crate::engine::lift_to_max;
use awb_net::{LinkId, LinkRateModel};
use awb_phy::Rate;

/// Weights below this are treated as zero: their links can never improve the
/// objective and are excluded from the search.
const WEIGHT_EPS: f64 = 1e-12;

/// Improvement margin for replacing the incumbent (keeps tie-breaking
/// deterministic: the first best found wins).
const VALUE_EPS: f64 = 1e-12;

/// Bounded number of local-search improvement sweeps in the heuristic.
const HEUR_PASSES: usize = 3;

/// Deterministic destroy-and-repair perturbations of the exact-mode
/// heuristic after its two greedy starts. Each removes one member, bans it
/// for the repair, and re-runs greedy + local search; the best set over all
/// starts wins.
const HEUR_RESTARTS: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Exact,
    RateIndependent,
    Generic,
}

/// Reusable working memory for one oracle's pricing rounds.
///
/// A column-generation loop prices the same compiled component hundreds of
/// times with fresh weights; every buffer the search needs lives here so the
/// steady state allocates nothing. Obtain one per oracle via
/// [`MaxWeightOracle::new_scratch`] and pass it to the `_with` entry points.
/// Contents are fully overwritten by each call — reuse never changes answers.
#[derive(Debug, Clone, Default)]
pub struct PriceScratch {
    /// Per live link: best-case contribution (weight × max alone rate).
    potential: Vec<f64>,
    /// Per couple: its contribution (weight of its link × its rate).
    contrib: Vec<f64>,
    /// Live links with usable weight, descending potential.
    order: Vec<usize>,
    /// Alternate greedy order (potential discounted by conflict degree).
    order_alt: Vec<usize>,
    /// Per live link: score backing `order_alt`.
    score: Vec<f64>,
    /// Best couple set seen across heuristic restarts.
    best_couples: Vec<usize>,
    /// `suffix[k]` = best-case contribution of `order[k..]`.
    suffix: Vec<f64>,
    /// Level-indexed candidate-mask stack for the exact search.
    cand: Vec<u64>,
    /// Level-indexed clique-cover bounds for the exact search:
    /// `bound[level * (order.len() + 1) + p]` bounds what `order[p..]` can
    /// add under `cand[level]`.
    bound: Vec<f64>,
    /// One cover's cliques while it is packed: the AND of each clique's
    /// members' conflict rows, `words` words per clique.
    clique_rows: Vec<u64>,
    /// One cover's per-clique heaviest member seen by the backward sweep.
    clique_max: Vec<f64>,
    /// One cover's entry per position in `order`: the clique of its link
    /// (`NO_CLIQUE` when none of its couples survives) and its best
    /// surviving couple's contribution.
    pos_cover: Vec<(usize, f64)>,
    /// Branching positions of the last exact search (see
    /// [`PricingAnswer::exact_nodes`]).
    exact_nodes: u64,
    /// Chosen-couple mask for the model-confirmed searches and heuristics.
    chosen: Vec<u64>,
    /// Chosen live link indices, in choice order.
    members: Vec<usize>,
    /// Chosen couple ids, parallel to `members` (heuristic bookkeeping).
    member_couples: Vec<usize>,
    /// Chosen couples as a model assignment, parallel to `members`.
    assignment: Vec<(LinkId, Rate)>,
}

/// A reusable branch-and-bound maximum-weight rated-set searcher over one
/// `(model, universe)` pair.
///
/// Construction compiles the model's conflict snapshot once (the same
/// word-packed form the enumeration engine uses); each
/// [`MaxWeightOracle::max_weight_set`] call then runs a fresh search against
/// new weights, which is what a column-generation loop needs — one compile,
/// many pricing rounds.
#[derive(Debug, Clone)]
pub struct MaxWeightOracle {
    c: Compiled,
    mode: Mode,
}

impl MaxWeightOracle {
    /// Compiles the oracle for `model` over `universe`. Dead links (no alone
    /// rates) are excluded; the remaining live links, in universe order, are
    /// exposed through [`MaxWeightOracle::links`] and index the weight
    /// vector.
    pub fn new<M: LinkRateModel + ?Sized>(model: &M, universe: &[LinkId]) -> MaxWeightOracle {
        let c = Compiled::new(&model.conflict_snapshot(universe));
        let mode = if model.pairwise_admissibility_exact() {
            Mode::Exact
        } else if model.rate_independent_interference() {
            Mode::RateIndependent
        } else {
            Mode::Generic
        };
        MaxWeightOracle { c, mode }
    }

    /// The live links this oracle searches over, in universe order. Weight
    /// vectors passed to [`MaxWeightOracle::max_weight_set`] are indexed by
    /// position in this slice.
    pub fn links(&self) -> &[LinkId] {
        &self.c.links
    }

    /// Allocates a scratch arena sized for this oracle, for reuse across
    /// pricing rounds via the `_with` entry points.
    pub fn new_scratch(&self) -> PriceScratch {
        let n = self.c.num_links();
        let couples = self.c.num_couples();
        let words = self.c.words;
        PriceScratch {
            potential: Vec::with_capacity(n),
            contrib: Vec::with_capacity(couples),
            order: Vec::with_capacity(n),
            order_alt: Vec::with_capacity(n),
            score: Vec::with_capacity(n),
            best_couples: Vec::with_capacity(n),
            suffix: Vec::with_capacity(n + 1),
            cand: Vec::with_capacity((n + 1) * words),
            bound: Vec::with_capacity((n + 1) * (n + 1)),
            clique_rows: Vec::with_capacity(n * words),
            clique_max: Vec::with_capacity(n),
            pos_cover: Vec::with_capacity(n),
            exact_nodes: 0,
            chosen: vec![0; words],
            members: Vec::with_capacity(n),
            member_couples: Vec::with_capacity(n),
            assignment: Vec::with_capacity(n),
        }
    }

    /// The canonical value of `set` under `weights`: couples in link order,
    /// each contributing `w_link * rate` (negative weights clamped to zero).
    /// Both the heuristic and the exact oracle's answers are re-valued with
    /// this one rule before the reduced-cost test, so the accept decision
    /// never depends on which search produced the column.
    pub fn set_value(&self, weights: &[f64], set: &RatedSet) -> f64 {
        set.couples()
            .iter()
            .map(|&(l, r)| {
                self.c
                    .links
                    .iter()
                    .position(|&cl| cl == l)
                    .map_or(0.0, |i| weights[i].max(0.0) * r.as_mbps())
            })
            .sum()
    }

    /// Finds an admissible rated set maximizing `sum w_i * rate_i` over the
    /// live links, together with its weight. Returns `None` when no set has
    /// positive weight (all weights effectively zero, or no live links).
    ///
    /// `model` must be the model the oracle was compiled from; weights must
    /// be finite and are clamped at zero from below (negative or NaN weights
    /// exclude their links — an admissible set never benefits from them,
    /// since dropping a link keeps the set admissible).
    ///
    /// Allocates a fresh scratch; loops should hold a [`PriceScratch`] and
    /// call [`MaxWeightOracle::max_weight_set_with`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.links().len()`.
    pub fn max_weight_set<M: LinkRateModel + ?Sized>(
        &self,
        model: &M,
        weights: &[f64],
    ) -> Option<(RatedSet, f64)> {
        let mut scratch = self.new_scratch();
        self.max_weight_set_with(model, weights, &mut scratch)
    }

    /// [`MaxWeightOracle::max_weight_set`] against caller-owned scratch
    /// buffers: the allocation-free form for pricing loops.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.links().len()`.
    pub fn max_weight_set_with<M: LinkRateModel + ?Sized>(
        &self,
        model: &M,
        weights: &[f64],
        scratch: &mut PriceScratch,
    ) -> Option<(RatedSet, f64)> {
        scratch.exact_nodes = 0;
        if !self.prepare(weights, scratch) {
            return None;
        }
        match self.mode {
            Mode::Exact => {
                let words = self.c.words;
                let links = scratch.order.len();
                // Levels and positions both run 0..=links.
                let stride = links + 1;
                scratch.cand.clear();
                scratch.cand.resize(stride * words, 0);
                for &i in &scratch.order {
                    for couple in self.c.couples_of(i) {
                        set_bit(&mut scratch.cand[..words], couple);
                    }
                }
                scratch.bound.clear();
                scratch.bound.resize(stride * stride, 0.0);
                scratch.clique_rows.clear();
                scratch.clique_rows.resize(links * words, 0);
                scratch.clique_max.clear();
                scratch.clique_max.resize(links, 0.0);
                scratch.pos_cover.clear();
                scratch.pos_cover.resize(links, (NO_CLIQUE, 0.0));
                scratch.assignment.clear();
                let mut search = ExactSearch {
                    c: &self.c,
                    order: &scratch.order,
                    contrib: &scratch.contrib,
                    cand: &mut scratch.cand,
                    bound: &mut scratch.bound,
                    clique_rows: &mut scratch.clique_rows,
                    clique_max: &mut scratch.clique_max,
                    pos_cover: &mut scratch.pos_cover,
                    assignment: &mut scratch.assignment,
                    best: None,
                    words,
                    nodes: 0,
                };
                search.cover(0, 0);
                search.run(0, 0, 0.0);
                scratch.exact_nodes = search.nodes;
                search.best
            }
            Mode::RateIndependent | Mode::Generic => {
                scratch.chosen.fill(0);
                scratch.members.clear();
                scratch.assignment.clear();
                let mut search = ModelSearch {
                    c: &self.c,
                    model,
                    weights,
                    order: &scratch.order,
                    suffix: &scratch.suffix,
                    contrib: &scratch.contrib,
                    chosen: &mut scratch.chosen,
                    members: &mut scratch.members,
                    assignment: &mut scratch.assignment,
                    best: None,
                    nodes: 0,
                };
                if self.mode == Mode::RateIndependent {
                    search.rate_independent(0, 0.0);
                } else {
                    search.generic(0, 0.0);
                }
                scratch.exact_nodes = search.nodes;
                search.best
            }
        }
    }

    /// A cheap greedy + bounded-local-search column constructor: near-linear
    /// time, no optimality certificate. Returns an admissible rated set and
    /// its value under `weights`, or `None` when no link has usable weight.
    ///
    /// For pairwise-exact models the greedy insertion (descending
    /// `w * best_rate` over the compiled masks) is followed by up to
    /// `HEUR_PASSES` improvement sweeps, each trying to insert a couple and
    /// evict everything that conflicts with it — this subsumes 1-swap,
    /// 2-swap and rate-raise moves, and leaves the set maximal. The
    /// model-confirmed modes (SINR, generic) do the greedy pass only, with
    /// the model confirming each insertion (and rate lifting for
    /// rate-independent models).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.links().len()`.
    pub fn heuristic_max_weight_set_with<M: LinkRateModel + ?Sized>(
        &self,
        model: &M,
        weights: &[f64],
        scratch: &mut PriceScratch,
    ) -> Option<(RatedSet, f64)> {
        if !self.prepare(weights, scratch) {
            return None;
        }
        match self.mode {
            Mode::Exact => self.heuristic_exact(scratch),
            Mode::RateIndependent => self.heuristic_rate_independent(model, weights, scratch),
            Mode::Generic => self.heuristic_generic(model, scratch),
        }
    }

    /// Fills `potential`/`contrib`/`order`/`suffix` from `weights`. Returns
    /// `false` when no link has usable weight (search would be empty).
    fn prepare(&self, weights: &[f64], s: &mut PriceScratch) -> bool {
        assert_eq!(
            weights.len(),
            self.c.num_links(),
            "one weight per live link"
        );
        let n = self.c.num_links();
        s.potential.clear();
        for (i, &w) in weights.iter().enumerate() {
            s.potential.push(if w > WEIGHT_EPS {
                w * self.c.rates[i][0].as_mbps()
            } else {
                0.0
            });
        }
        s.contrib.clear();
        for couple in 0..self.c.num_couples() {
            let i = self.c.couple_link[couple];
            s.contrib.push(if s.potential[i] > 0.0 {
                weights[i] * self.c.couple_rate[couple].as_mbps()
            } else {
                0.0
            });
        }
        // Search order: links with usable weight, by descending best-case
        // contribution (weight x max alone rate), ties by universe position.
        let potential = &s.potential;
        s.order.clear();
        s.order.extend((0..n).filter(|&i| potential[i] > 0.0));
        s.order
            .sort_by(|&a, &b| potential[b].total_cmp(&potential[a]).then(a.cmp(&b)));
        if s.order.is_empty() {
            return false;
        }
        s.suffix.clear();
        s.suffix.resize(s.order.len() + 1, 0.0);
        for k in (0..s.order.len()).rev() {
            s.suffix[k] = s.suffix[k + 1] + s.potential[s.order[k]];
        }
        true
    }

    /// Multi-start greedy + eviction local search over the compiled masks
    /// (pairwise-exact models only: the masks decide admissibility).
    ///
    /// Two deterministic greedy starts — descending potential, and potential
    /// discounted by conflict degree (the classic weight/degree independent-
    /// set order) — are each polished by the eviction local search, then
    /// [`HEUR_RESTARTS`] destroy-and-repair perturbations kick the best set
    /// out of its local optimum: remove one member, ban it during the
    /// repair, refill greedily and re-polish. Everything is a pure function
    /// of `(masks, weights)`, so answers stay deterministic.
    fn heuristic_exact(&self, s: &mut PriceScratch) -> Option<(RatedSet, f64)> {
        // Start 1: greedy by descending potential.
        s.chosen.fill(0);
        s.members.clear();
        s.member_couples.clear();
        self.heur_fill(s, false, usize::MAX);
        self.heur_local_search(s, usize::MAX);
        let mut best_value = heur_value(s);
        s.best_couples.clear();
        s.best_couples.extend_from_slice(&s.member_couples);

        // Start 2: greedy by potential discounted by conflict degree, which
        // favours links that block little else and often lands on maximal
        // sets the pure-weight order walks past.
        s.score.clear();
        for i in 0..self.c.num_links() {
            let score = if s.potential[i] > 0.0 {
                let best = self.c.couples_of(i).start;
                let deg: u32 = self
                    .c
                    .conflict_row(best)
                    .iter()
                    .map(|w| w.count_ones())
                    .sum();
                s.potential[i] / (1.0 + f64::from(deg))
            } else {
                0.0
            };
            s.score.push(score);
        }
        s.order_alt.clear();
        s.order_alt.extend_from_slice(&s.order);
        let score = &s.score;
        s.order_alt
            .sort_by(|&a, &b| score[b].total_cmp(&score[a]).then(a.cmp(&b)));
        s.chosen.fill(0);
        s.members.clear();
        s.member_couples.clear();
        self.heur_fill(s, true, usize::MAX);
        self.heur_local_search(s, usize::MAX);
        let value = heur_value(s);
        if value > best_value + VALUE_EPS {
            best_value = value;
            s.best_couples.clear();
            s.best_couples.extend_from_slice(&s.member_couples);
        }

        // Iterated local search: perturb the incumbent by evicting one
        // member (rotating through positions across restarts), repair with
        // that link banned, and keep the result only when it strictly wins.
        for r in 0..HEUR_RESTARTS {
            if s.best_couples.len() <= 1 {
                break;
            }
            s.chosen.fill(0);
            s.members.clear();
            s.member_couples.clear();
            for idx in 0..s.best_couples.len() {
                let couple = s.best_couples[idx];
                set_bit(&mut s.chosen, couple);
                s.members.push(self.c.couple_link[couple]);
                s.member_couples.push(couple);
            }
            let victim = r % s.members.len();
            let banned = s.members.remove(victim);
            let evicted = s.member_couples.remove(victim);
            clear_bit(&mut s.chosen, evicted);
            self.heur_fill(s, false, banned);
            self.heur_local_search(s, banned);
            let value = heur_value(s);
            if value > best_value + VALUE_EPS {
                best_value = value;
                s.best_couples.clear();
                s.best_couples.extend_from_slice(&s.member_couples);
            }
        }

        if s.best_couples.is_empty() {
            return None;
        }
        let set = RatedSet::new(
            s.best_couples
                .iter()
                .map(|&c| (self.c.links[self.c.couple_link[c]], self.c.couple_rate[c]))
                // awb-audit: allow(hot-path-alloc) — the winning column is
                // materialized once per heuristic call, on success only.
                .collect(),
        );
        Some((set, best_value))
    }

    /// Greedy completion of the current partial set: first compatible
    /// (= highest-rate compatible) couple per link, links in `order` (or
    /// `order_alt`), skipping `banned`. Member links are skipped implicitly —
    /// conflict rows cover a link's own couples.
    fn heur_fill(&self, s: &mut PriceScratch, alt_order: bool, banned: usize) {
        for k in 0..s.order.len() {
            let i = if alt_order {
                s.order_alt[k]
            } else {
                s.order[k]
            };
            if i == banned {
                continue;
            }
            for couple in self.c.couples_of(i) {
                if self.c.compatible_with(couple, &s.chosen) {
                    set_bit(&mut s.chosen, couple);
                    s.members.push(i);
                    s.member_couples.push(couple);
                    break;
                }
            }
        }
    }

    /// Improvement sweeps over the current set: try to insert each couple,
    /// evicting everything that conflicts with it; apply when the trade
    /// strictly gains. An insertion with nothing to evict is the plain
    /// greedy completion, so the set stays maximal at a local optimum.
    fn heur_local_search(&self, s: &mut PriceScratch, banned: usize) {
        for _ in 0..HEUR_PASSES {
            let mut improved = false;
            for k in 0..s.order.len() {
                let i = s.order[k];
                if i == banned {
                    continue;
                }
                let current = s
                    .members
                    .iter()
                    .position(|&m| m == i)
                    .map(|p| s.member_couples[p]);
                for couple in self.c.couples_of(i) {
                    // Couples are rates-descending: at the current couple the
                    // remaining ones only lower this link's contribution
                    // while evicting at least as much, so stop.
                    if current == Some(couple) {
                        break;
                    }
                    let row = self.c.conflict_row(couple);
                    let mut evicted = 0.0;
                    for &mc in s.member_couples.iter() {
                        if test_bit(row, mc) {
                            evicted += s.contrib[mc];
                        }
                    }
                    if s.contrib[couple] - evicted > VALUE_EPS {
                        let mut idx = 0;
                        while idx < s.members.len() {
                            if test_bit(row, s.member_couples[idx]) {
                                clear_bit(&mut s.chosen, s.member_couples[idx]);
                                s.members.remove(idx);
                                s.member_couples.remove(idx);
                            } else {
                                idx += 1;
                            }
                        }
                        set_bit(&mut s.chosen, couple);
                        s.members.push(i);
                        s.member_couples.push(couple);
                        improved = true;
                        break;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// Greedy membership at the lowest-rate couples with model confirmation,
    /// then a single lift of every member to its maximum supported rate.
    fn heuristic_rate_independent<M: LinkRateModel + ?Sized>(
        &self,
        model: &M,
        weights: &[f64],
        s: &mut PriceScratch,
    ) -> Option<(RatedSet, f64)> {
        s.chosen.fill(0);
        s.members.clear();
        s.assignment.clear();
        for k in 0..s.order.len() {
            let i = s.order[k];
            let low = self.c.lowest_couple(i);
            if !self.c.compatible_with(low, &s.chosen) {
                continue;
            }
            s.assignment
                .push((self.c.links[i], self.c.couple_rate[low]));
            s.members.push(i);
            if model.admissible(&s.assignment) {
                set_bit(&mut s.chosen, low);
            } else {
                s.assignment.pop();
                s.members.pop();
            }
        }
        if s.members.is_empty() {
            return None;
        }
        let lifted = lift_to_max(model, &self.c, &s.members, &s.assignment);
        let value = lifted
            .couples()
            .iter()
            .map(|&(l, r)| {
                self.c
                    .links
                    .iter()
                    .position(|&cl| cl == l)
                    .map_or(0.0, |i| weights[i].max(0.0) * r.as_mbps())
            })
            .sum();
        Some((lifted, value))
    }

    /// Greedy couples with model confirmation (no local search: every probe
    /// costs a whole-assignment model callback).
    fn heuristic_generic<M: LinkRateModel + ?Sized>(
        &self,
        model: &M,
        s: &mut PriceScratch,
    ) -> Option<(RatedSet, f64)> {
        s.chosen.fill(0);
        s.member_couples.clear();
        s.assignment.clear();
        for k in 0..s.order.len() {
            let i = s.order[k];
            for couple in self.c.couples_of(i) {
                if !self.c.compatible_with(couple, &s.chosen) {
                    continue;
                }
                s.assignment
                    .push((self.c.links[i], self.c.couple_rate[couple]));
                if model.admissible(&s.assignment) {
                    set_bit(&mut s.chosen, couple);
                    s.member_couples.push(couple);
                    break;
                }
                s.assignment.pop();
            }
        }
        if s.member_couples.is_empty() {
            return None;
        }
        let value: f64 = s.member_couples.iter().map(|&c| s.contrib[c]).sum();
        // awb-audit: allow(hot-path-alloc) — one column copy per successful
        // heuristic call; the scratch assignment is reused across calls.
        Some((RatedSet::new(s.assignment.clone()), value))
    }
}

/// Value of the heuristic's current member couples under the prepared
/// contributions.
fn heur_value(s: &PriceScratch) -> f64 {
    s.member_couples.iter().map(|&c| s.contrib[c]).sum()
}

/// Marks a cover position whose link has no surviving couple.
const NO_CLIQUE: usize = usize::MAX;

/// Branch and bound for pairwise-exact models.
///
/// Positions index `order`; an *include level* is the number of chosen
/// couples. `cand[level]` holds every couple compatible with all chosen
/// couples, so the include test is one bit probe. Entering a level builds a
/// clique cover of its surviving couples ([`ExactSearch::cover`]), and
/// `bound[level][p]` — the sum over cliques of the heaviest member at or
/// after position `p` — bounds what `order[p..]` can add: an admissible set
/// takes at most one couple from each clique. The exclude steps along a
/// level read it in O(1), and an include child is not entered when the
/// parent's bound at the next position already rules it out, since the
/// parent's cover, restricted to the child's candidates, still covers them.
///
/// The branch order (positions in `order`, a link's couples rates
/// descending, include before exclude) and the strict improvement rule fix
/// the answer: a bound only skips subtrees none of whose nodes would
/// replace the incumbent, so any sound bound returns the same set and value.
/// Trials that stayed out: seeding the incumbent from the heuristic column
/// or from the reduced-cost threshold saved under 1% of the nodes, and a
/// cover that splits each link's 54/36/18 ladder across cliques branched at
/// 2.4x fewer positions but ran slower. [`ModelSearch`] keeps the suffix
/// bound: no benchmark workload prices SINR models.
struct ExactSearch<'a> {
    c: &'a Compiled,
    order: &'a [usize],
    contrib: &'a [f64],
    cand: &'a mut [u64],
    bound: &'a mut [f64],
    clique_rows: &'a mut [u64],
    clique_max: &'a mut [f64],
    pos_cover: &'a mut [(usize, f64)],
    assignment: &'a mut Vec<(LinkId, Rate)>,
    best: Option<(RatedSet, f64)>,
    words: usize,
    /// Positions branched at (nodes that passed their bound).
    nodes: u64,
}

impl ExactSearch<'_> {
    fn best_value(&self) -> f64 {
        self.best.as_ref().map_or(0.0, |&(_, v)| v)
    }

    /// Installs the current assignment as the incumbent if it improves;
    /// the `RatedSet` is only materialized on improvement.
    fn offer(&mut self, value: f64) {
        if value > self.best_value() + VALUE_EPS {
            // awb-audit: allow(hot-path-alloc) — incumbent copied only on
            // strict improvement (see the doc comment above).
            self.best = Some((RatedSet::new(self.assignment.clone()), value));
        }
    }

    /// Builds the clique cover of `cand[level]` over `order[pos..]` and
    /// fills `bound[level][pos..]`.
    ///
    /// Links are packed first fit in `order` (heaviest potential first): a
    /// link's surviving couples, which conflict with each other, join the
    /// first clique whose conflict-row AND holds all of them — every member
    /// conflicts with every one of them — or open a new clique; the clique's
    /// AND then takes in their rows. A backward sweep adds each position's
    /// best surviving couple (the first, rates descending) to its clique's
    /// maximum, so `bound[level][p]` sums the cliques' heaviest members at
    /// or after `p`.
    fn cover(&mut self, level: usize, pos: usize) {
        let w = self.words;
        let links = self.order.len();
        let cand = &self.cand[level * w..(level + 1) * w];
        let mut cliques = 0;
        for p in pos..links {
            let mut couples = self.c.couples_of(self.order[p]);
            let end = couples.end;
            let Some(top) = couples.find(|&c| test_bit(cand, c)) else {
                self.pos_cover[p] = (NO_CLIQUE, 0.0);
                continue;
            };
            let fits = |k: usize| {
                let row = &self.clique_rows[k * w..(k + 1) * w];
                (top..end).all(|c| !test_bit(cand, c) || test_bit(row, c))
            };
            let k = match (0..cliques).find(|&k| fits(k)) {
                Some(k) => k,
                None => {
                    self.clique_rows[cliques * w..(cliques + 1) * w].fill(u64::MAX);
                    cliques += 1;
                    cliques - 1
                }
            };
            let row = &mut self.clique_rows[k * w..(k + 1) * w];
            for c in (top..end).filter(|&c| test_bit(cand, c)) {
                for (r, &conflict) in row.iter_mut().zip(self.c.conflict_row(c)) {
                    *r &= conflict;
                }
            }
            self.pos_cover[p] = (k, self.contrib[top]);
        }
        let stride = links + 1;
        let bound = &mut self.bound[level * stride..(level + 1) * stride];
        let clique_max = &mut self.clique_max[..cliques];
        clique_max.fill(0.0);
        let mut total = 0.0;
        bound[links] = 0.0;
        for p in (pos..links).rev() {
            let (k, top) = self.pos_cover[p];
            if k != NO_CLIQUE && top > clique_max[k] {
                total += top - clique_max[k];
                clique_max[k] = top;
            }
            bound[p] = total;
        }
    }

    /// Searches from position `pos` at include level `level`, whose cover
    /// is built; each loop turn past the first is an exclude step.
    fn run(&mut self, mut pos: usize, level: usize, value: f64) {
        let w = self.words;
        let stride = self.order.len() + 1;
        while pos < self.order.len() {
            if value + self.bound[level * stride + pos] <= self.best_value() + VALUE_EPS {
                return;
            }
            self.nodes += 1;
            let i = self.order[pos];
            for couple in self.c.couples_of(i) {
                if !test_bit(&self.cand[level * w..(level + 1) * w], couple) {
                    continue;
                }
                let child = value + self.contrib[couple];
                self.assignment
                    .push((self.c.links[i], self.c.couple_rate[couple]));
                self.offer(child);
                if child + self.bound[level * stride + pos + 1] > self.best_value() + VALUE_EPS {
                    let (lo, hi) = self.cand.split_at_mut((level + 1) * w);
                    and_into(&lo[level * w..], self.c.compat_row(couple), &mut hi[..w]);
                    self.cover(level + 1, pos + 1);
                    self.run(pos + 1, level + 1, child);
                }
                self.assignment.pop();
            }
            pos += 1;
        }
    }
}

/// Branch and bound for the model-confirmed modes (rate-independent and
/// generic), mirroring the exact search but with the chosen-couple mask as a
/// sound prefilter and the model as the final judge.
struct ModelSearch<'a, M: LinkRateModel + ?Sized> {
    c: &'a Compiled,
    model: &'a M,
    weights: &'a [f64],
    order: &'a [usize],
    suffix: &'a [f64],
    contrib: &'a [f64],
    chosen: &'a mut [u64],
    members: &'a mut Vec<usize>,
    assignment: &'a mut Vec<(LinkId, Rate)>,
    best: Option<(RatedSet, f64)>,
    /// Positions branched at (nodes that passed the suffix bound).
    nodes: u64,
}

impl<M: LinkRateModel + ?Sized> ModelSearch<'_, M> {
    fn best_value(&self) -> f64 {
        self.best.as_ref().map_or(0.0, |&(_, v)| v)
    }

    fn offer_set(&mut self, set: &RatedSet, value: f64) {
        if value > self.best_value() + VALUE_EPS {
            // awb-audit: allow(hot-path-alloc) — incumbent copied only on
            // strict improvement.
            self.best = Some((set.clone(), value));
        }
    }

    fn offer_assignment(&mut self, value: f64) {
        if value > self.best_value() + VALUE_EPS {
            // awb-audit: allow(hot-path-alloc) — incumbent copied only on
            // strict improvement.
            self.best = Some((RatedSet::new(self.assignment.clone()), value));
        }
    }

    /// Rate-independent models: membership decides admissibility; the chosen
    /// links' lowest-rate couple masks prefilter, the model confirms, and the
    /// node is valued by lifting every member to its maximum supported rate.
    fn rate_independent(&mut self, pos: usize, value: f64) {
        if pos == self.order.len() || value + self.suffix[pos] <= self.best_value() + VALUE_EPS {
            return;
        }
        self.nodes += 1;
        let i = self.order[pos];
        let low = self.c.lowest_couple(i);
        if self.c.compatible_with(low, self.chosen) {
            let low_rate = self.c.couple_rate[low];
            self.assignment.push((self.c.links[i], low_rate));
            self.members.push(i);
            if self.model.admissible(self.assignment) {
                let lifted = lift_to_max(self.model, self.c, self.members, self.assignment);
                // `RatedSet` orders couples by link id, not choice order, so
                // match weights up by link.
                let lifted_value: f64 = lifted
                    .couples()
                    .iter()
                    .map(|&(l, r)| {
                        self.c
                            .links
                            .iter()
                            .position(|&cl| cl == l)
                            .map_or(0.0, |i| self.weights[i] * r.as_mbps())
                    })
                    .sum();
                self.offer_set(&lifted, lifted_value);
                set_bit(self.chosen, low);
                // Growing the set can only lower the members' lifted rates,
                // so `lifted_value` bounds the chosen part of any descendant.
                self.rate_independent(pos + 1, lifted_value);
                clear_bit(self.chosen, low);
            }
            self.members.pop();
            self.assignment.pop();
        }
        self.rate_independent(pos + 1, value);
    }

    /// Generic models: branch over couples with the mask prefilter, but let
    /// the model confirm every extension.
    fn generic(&mut self, pos: usize, value: f64) {
        if pos == self.order.len() || value + self.suffix[pos] <= self.best_value() + VALUE_EPS {
            return;
        }
        self.nodes += 1;
        let i = self.order[pos];
        for couple in self.c.couples_of(i) {
            if !self.c.compatible_with(couple, self.chosen) {
                continue;
            }
            self.assignment
                .push((self.c.links[i], self.c.couple_rate[couple]));
            if self.model.admissible(self.assignment) {
                let gain = self.contrib[couple];
                set_bit(self.chosen, couple);
                self.offer_assignment(value + gain);
                self.generic(pos + 1, value + gain);
                clear_bit(self.chosen, couple);
            }
            self.assignment.pop();
        }
        self.generic(pos + 1, value);
    }
}

/// One conflict component's pricing problem for a column-generation round.
pub struct PricingRequest<'a> {
    /// The component's compiled oracle.
    pub oracle: &'a MaxWeightOracle,
    /// Raw master duals (clamped ≥ 0), indexed like `oracle.links()`. The
    /// reduced-cost accept test always uses these.
    pub raw_weights: &'a [f64],
    /// Weights steering the heuristic proposal — possibly a stabilized
    /// (smoothed) version of `raw_weights`. Exactness is unaffected: every
    /// column is re-valued under `raw_weights` before the accept test.
    pub search_weights: &'a [f64],
    /// A column enters iff its raw value strictly exceeds this.
    pub threshold: f64,
    /// Columns already in the component's restricted master (duplicates are
    /// never returned).
    pub pool: &'a [RatedSet],
}

/// The outcome of pricing one component for one round.
#[derive(Debug, Clone, Default)]
pub struct PricingAnswer {
    /// The entering column and its canonical raw value, if any.
    pub column: Option<(RatedSet, f64)>,
    /// Whether the column came from the heuristic (no exact search ran).
    pub by_heuristic: bool,
    /// Whether the exact branch-and-bound ran this round.
    pub exact_invoked: bool,
    /// Wall-clock nanoseconds spent in the heuristic constructor.
    pub heuristic_ns: u64,
    /// Wall-clock nanoseconds spent in the exact search.
    pub exact_ns: u64,
    /// Positions the exact search branched at: search nodes that passed
    /// their bound (0 when it did not run). A host-independent measure of
    /// the exact search's work.
    pub exact_nodes: u64,
}

/// Prices one component: heuristic first (when enabled), exact
/// branch-and-bound as the fallback certifier.
///
/// The heuristic column is accepted only if its value under the **raw**
/// duals clears `threshold` and it is not already in the pool; otherwise the
/// exact oracle runs on the raw duals, so a `column: None` answer with
/// `exact_invoked: true` is a *certificate* that no improving column exists
/// for this component — the exactness of column generation rests on the
/// exact search alone, never on the heuristic.
// awb-audit: hot
pub fn price_component<M: LinkRateModel + ?Sized>(
    model: &M,
    req: &PricingRequest<'_>,
    heuristic_first: bool,
    scratch: &mut PriceScratch,
) -> PricingAnswer {
    let mut ans = PricingAnswer::default();
    if heuristic_first {
        let start = std::time::Instant::now();
        let proposed = req
            .oracle
            .heuristic_max_weight_set_with(model, req.search_weights, scratch);
        ans.heuristic_ns = start.elapsed().as_nanos() as u64;
        if let Some((set, _)) = proposed {
            let raw = req.oracle.set_value(req.raw_weights, &set);
            if raw > req.threshold && !req.pool.contains(&set) {
                ans.column = Some((set, raw));
                ans.by_heuristic = true;
                return ans;
            }
        }
    }
    let start = std::time::Instant::now();
    let found = req
        .oracle
        .max_weight_set_with(model, req.raw_weights, scratch);
    ans.exact_ns = start.elapsed().as_nanos() as u64;
    ans.exact_invoked = true;
    ans.exact_nodes = scratch.exact_nodes;
    if let Some((set, _)) = found {
        let raw = req.oracle.set_value(req.raw_weights, &set);
        if raw > req.threshold && !req.pool.contains(&set) {
            ans.column = Some((set, raw));
        }
    }
    ans
}

/// Prices every component of a round, fanning the per-component calls out
/// across `threads` workers (`0` = all available cores).
///
/// Components are split into contiguous chunks — one per worker — and the
/// answers are written into per-component slots, so the returned vector is
/// in component order and **bit-identical for any thread count**: each
/// component's answer depends only on its own request and scratch (whose
/// contents are fully overwritten), exactly as in the sequential loop.
///
/// # Panics
///
/// Panics if `scratches.len() != requests.len()`.
pub fn price_components<M: LinkRateModel + ?Sized>(
    model: &M,
    requests: &[PricingRequest<'_>],
    heuristic_first: bool,
    threads: usize,
    scratches: &mut [PriceScratch],
) -> Vec<PricingAnswer> {
    assert_eq!(scratches.len(), requests.len(), "one scratch per component");
    let threads = crate::engine::resolve_threads(threads).min(requests.len().max(1));
    if threads <= 1 || requests.len() <= 1 {
        return requests
            .iter()
            .zip(scratches.iter_mut())
            .map(|(req, scratch)| price_component(model, req, heuristic_first, scratch))
            .collect();
    }
    let chunk = requests.len().div_ceil(threads);
    let mut out: Vec<PricingAnswer> = vec![PricingAnswer::default(); requests.len()];
    std::thread::scope(|scope| {
        for ((req_chunk, scratch_chunk), out_chunk) in requests
            .chunks(chunk)
            .zip(scratches.chunks_mut(chunk))
            .zip(out.chunks_mut(chunk))
        {
            scope.spawn(move || {
                for ((req, scratch), slot) in req_chunk
                    .iter()
                    .zip(scratch_chunk.iter_mut())
                    .zip(out_chunk.iter_mut())
                {
                    *slot = price_component(model, req, heuristic_first, scratch);
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate_admissible, EnumerationOptions};
    use awb_net::{DeclarativeModel, SinrModel, Topology};
    use awb_phy::Phy;
    use proptest::prelude::*;

    fn r(m: f64) -> Rate {
        Rate::from_mbps(m)
    }

    /// Reference: score every admissible set (unpruned enumeration).
    fn brute_force<M: LinkRateModel>(
        model: &M,
        universe: &[LinkId],
        weights: &[(LinkId, f64)],
    ) -> f64 {
        let opts = EnumerationOptions {
            prune_dominated: false,
            ..EnumerationOptions::default()
        };
        enumerate_admissible(model, universe, &opts)
            .iter()
            .map(|s| {
                s.couples()
                    .iter()
                    .map(|&(l, rate)| {
                        weights
                            .iter()
                            .find(|&&(wl, _)| wl == l)
                            .map_or(0.0, |&(_, w)| w.max(0.0) * rate.as_mbps())
                    })
                    .sum()
            })
            .fold(0.0f64, f64::max)
    }

    fn weight_of(set: &RatedSet, weights: &[(LinkId, f64)]) -> f64 {
        set.couples()
            .iter()
            .map(|&(l, rate)| {
                weights
                    .iter()
                    .find(|&&(wl, _)| wl == l)
                    .map_or(0.0, |&(_, w)| w * rate.as_mbps())
            })
            .sum()
    }

    fn declarative_fixture() -> (DeclarativeModel, Vec<LinkId>) {
        let mut t = Topology::new();
        let nodes: Vec<_> = (0..8).map(|i| t.add_node(i as f64 * 10.0, 0.0)).collect();
        let links: Vec<_> = (0..4)
            .map(|i| t.add_link(nodes[2 * i], nodes[2 * i + 1]).unwrap())
            .collect();
        let m = DeclarativeModel::builder(t)
            .alone_rates(links[0], &[r(54.0), r(18.0)])
            .alone_rates(links[1], &[r(54.0), r(36.0)])
            .alone_rates(links[2], &[r(36.0)])
            .alone_rates(links[3], &[r(54.0), r(36.0), r(18.0)])
            .conflict_all(links[0], links[1])
            .conflict_at(links[0], r(54.0), links[2], r(36.0))
            .conflict_at(links[1], r(54.0), links[3], r(54.0))
            .build();
        (m, links)
    }

    fn weight_sets(links: &[LinkId]) -> Vec<Vec<(LinkId, f64)>> {
        vec![
            vec![
                (links[0], 1.0),
                (links[1], 1.0),
                (links[2], 1.0),
                (links[3], 1.0),
            ],
            vec![
                (links[0], 0.3),
                (links[1], 2.0),
                (links[2], 0.0),
                (links[3], 0.1),
            ],
            vec![
                (links[0], 5.0),
                (links[1], 0.01),
                (links[2], 1.5),
                (links[3], 0.7),
            ],
        ]
    }

    #[test]
    fn exact_mode_matches_brute_force() {
        let (m, links) = declarative_fixture();
        for weights in weight_sets(&links) {
            let oracle = MaxWeightOracle::new(&m, &links);
            let w: Vec<f64> = oracle
                .links()
                .iter()
                .map(|&l| weights.iter().find(|&&(wl, _)| wl == l).unwrap().1)
                .collect();
            let (set, value) = oracle.max_weight_set(&m, &w).expect("positive weights");
            let reference = brute_force(&m, &links, &weights);
            assert!(
                (value - reference).abs() < 1e-9,
                "oracle {value} != brute force {reference}"
            );
            assert!((weight_of(&set, &weights) - value).abs() < 1e-9);
            assert!(m.admissible(set.couples()));
        }
    }

    #[test]
    fn rate_independent_mode_matches_brute_force() {
        // A 3-hop geometric chain: additive interference makes pairwise
        // compatibility insufficient, exercising the confirm + lift path.
        let mut t = Topology::new();
        let nodes: Vec<_> = (0..6).map(|i| t.add_node(i as f64 * 30.0, 0.0)).collect();
        let links: Vec<_> = (0..5)
            .map(|i| t.add_link(nodes[i], nodes[i + 1]).unwrap())
            .collect();
        let m = SinrModel::new(t, Phy::paper_default());
        assert!(m.rate_independent_interference());
        let weights: Vec<(LinkId, f64)> = links
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, 0.5 + i as f64 * 0.4))
            .collect();
        let oracle = MaxWeightOracle::new(&m, &links);
        let w: Vec<f64> = oracle
            .links()
            .iter()
            .map(|&l| weights.iter().find(|&&(wl, _)| wl == l).unwrap().1)
            .collect();
        let (set, value) = oracle.max_weight_set(&m, &w).expect("positive weights");
        let reference = brute_force(&m, &links, &weights);
        assert!(
            (value - reference).abs() < 1e-9,
            "oracle {value} != brute force {reference}"
        );
        assert!(m.admissible(set.couples()));
    }

    #[test]
    fn zero_and_negative_weights_return_none() {
        let (m, links) = declarative_fixture();
        let oracle = MaxWeightOracle::new(&m, &links);
        assert!(oracle.max_weight_set(&m, &[0.0; 4]).is_none());
        assert!(oracle.max_weight_set(&m, &[-1.0, 0.0, -0.5, 0.0]).is_none());
        let mut scratch = oracle.new_scratch();
        assert!(oracle
            .heuristic_max_weight_set_with(&m, &[0.0; 4], &mut scratch)
            .is_none());
    }

    #[test]
    fn single_positive_weight_picks_that_links_best_singleton_superset() {
        let (m, links) = declarative_fixture();
        let oracle = MaxWeightOracle::new(&m, &links);
        let mut w = vec![0.0; 4];
        let pos = oracle.links().iter().position(|&l| l == links[3]).unwrap();
        w[pos] = 2.0;
        let (set, value) = oracle.max_weight_set(&m, &w).unwrap();
        // Only link 3 carries weight; its max alone rate is 54.
        assert!((value - 108.0).abs() < 1e-9);
        assert_eq!(set.rate_of(links[3]), Some(r(54.0)));
    }

    #[test]
    fn weight_vector_length_is_enforced() {
        let (m, links) = declarative_fixture();
        let oracle = MaxWeightOracle::new(&m, &links);
        let result = std::panic::catch_unwind(|| oracle.max_weight_set(&m, &[1.0]));
        assert!(result.is_err());
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_searches() {
        let (m, links) = declarative_fixture();
        let oracle = MaxWeightOracle::new(&m, &links);
        let mut scratch = oracle.new_scratch();
        for weights in weight_sets(&links) {
            let w: Vec<f64> = oracle
                .links()
                .iter()
                .map(|&l| weights.iter().find(|&&(wl, _)| wl == l).unwrap().1)
                .collect();
            let fresh = oracle.max_weight_set(&m, &w);
            let reused = oracle.max_weight_set_with(&m, &w, &mut scratch);
            match (fresh, reused) {
                (Some((fs, fv)), Some((rs, rv))) => {
                    assert_eq!(fs, rs);
                    assert_eq!(fv.to_bits(), rv.to_bits());
                }
                (f, u) => assert_eq!(f.is_none(), u.is_none()),
            }
        }
    }

    #[test]
    fn heuristic_is_admissible_and_never_beats_exact() {
        let (m, links) = declarative_fixture();
        let oracle = MaxWeightOracle::new(&m, &links);
        let mut scratch = oracle.new_scratch();
        for weights in weight_sets(&links) {
            let w: Vec<f64> = oracle
                .links()
                .iter()
                .map(|&l| weights.iter().find(|&&(wl, _)| wl == l).unwrap().1)
                .collect();
            let exact = oracle.max_weight_set(&m, &w).expect("positive weights");
            let (set, value) = oracle
                .heuristic_max_weight_set_with(&m, &w, &mut scratch)
                .expect("positive weights");
            assert!(m.admissible(set.couples()));
            assert!((oracle.set_value(&w, &set) - value).abs() < 1e-9);
            assert!(
                value <= exact.1 + 1e-9,
                "heuristic {value} > exact {}",
                exact.1
            );
        }
    }

    #[test]
    fn heuristic_is_admissible_for_sinr_chain() {
        let mut t = Topology::new();
        let nodes: Vec<_> = (0..6).map(|i| t.add_node(i as f64 * 30.0, 0.0)).collect();
        let links: Vec<_> = (0..5)
            .map(|i| t.add_link(nodes[i], nodes[i + 1]).unwrap())
            .collect();
        let m = SinrModel::new(t, Phy::paper_default());
        let oracle = MaxWeightOracle::new(&m, &links);
        let w: Vec<f64> = (0..oracle.links().len())
            .map(|i| 0.5 + i as f64 * 0.4)
            .collect();
        let mut scratch = oracle.new_scratch();
        let exact = oracle.max_weight_set(&m, &w).expect("positive weights");
        let (set, value) = oracle
            .heuristic_max_weight_set_with(&m, &w, &mut scratch)
            .expect("positive weights");
        assert!(m.admissible(set.couples()));
        assert!(value <= exact.1 + 1e-9);
    }

    #[test]
    fn price_component_prefers_heuristic_and_falls_back_on_duplicates() {
        let (m, links) = declarative_fixture();
        let oracle = MaxWeightOracle::new(&m, &links);
        let w = vec![1.0; 4];
        let mut scratch = oracle.new_scratch();
        let req = PricingRequest {
            oracle: &oracle,
            raw_weights: &w,
            search_weights: &w,
            threshold: 0.0,
            pool: &[],
        };
        let ans = price_component(&m, &req, true, &mut scratch);
        let (h_set, _) = ans.column.clone().expect("improving column");
        assert!(ans.by_heuristic && !ans.exact_invoked);
        // With the heuristic column already pooled, the exact search must
        // run (and here it finds the same optimum, so no column enters).
        let pool = vec![h_set];
        let req = PricingRequest {
            oracle: &oracle,
            raw_weights: &w,
            search_weights: &w,
            threshold: 0.0,
            pool: &pool,
        };
        let ans = price_component(&m, &req, true, &mut scratch);
        assert!(ans.exact_invoked);
        if let Some((set, _)) = &ans.column {
            assert!(!pool.contains(set));
        }
    }

    #[test]
    fn parallel_pricing_matches_sequential_bitwise() {
        let (m, links) = declarative_fixture();
        let oracle = MaxWeightOracle::new(&m, &links);
        let weight_vecs: Vec<Vec<f64>> = weight_sets(&links)
            .into_iter()
            .map(|ws| {
                oracle
                    .links()
                    .iter()
                    .map(|&l| ws.iter().find(|&&(wl, _)| wl == l).unwrap().1)
                    .collect()
            })
            .collect();
        let requests: Vec<PricingRequest<'_>> = weight_vecs
            .iter()
            .map(|w| PricingRequest {
                oracle: &oracle,
                raw_weights: w,
                search_weights: w,
                threshold: 0.0,
                pool: &[],
            })
            .collect();
        let mut seq_scratch: Vec<PriceScratch> =
            requests.iter().map(|_| oracle.new_scratch()).collect();
        let mut par_scratch: Vec<PriceScratch> =
            requests.iter().map(|_| oracle.new_scratch()).collect();
        let sequential = price_components(&m, &requests, true, 1, &mut seq_scratch);
        let parallel = price_components(&m, &requests, true, 4, &mut par_scratch);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            match (&s.column, &p.column) {
                (Some((ss, sv)), Some((ps, pv))) => {
                    assert_eq!(ss, ps);
                    assert_eq!(sv.to_bits(), pv.to_bits());
                }
                (a, b) => assert_eq!(a.is_none(), b.is_none()),
            }
            assert_eq!(s.by_heuristic, p.by_heuristic);
            assert_eq!(s.exact_invoked, p.exact_invoked);
        }
    }

    /// The exact search with the per-node residual bound: the same branch
    /// order as [`ExactSearch`], but each node sums every remaining link's
    /// best *surviving* couple. It is the reference the clique-cover search
    /// must match bit for bit.
    struct ResidualSearch<'a> {
        c: &'a Compiled,
        order: &'a [usize],
        suffix: &'a [f64],
        contrib: &'a [f64],
        cand: &'a mut [u64],
        assignment: Vec<(LinkId, Rate)>,
        best: Option<(RatedSet, f64)>,
        words: usize,
    }

    impl ResidualSearch<'_> {
        fn best_value(&self) -> f64 {
            self.best.as_ref().map_or(0.0, |&(_, v)| v)
        }

        fn residual_improves(&self, pos: usize, level: usize, value: f64) -> bool {
            let target = self.best_value() + VALUE_EPS;
            if value + self.suffix[pos] <= target {
                return false;
            }
            let cand = &self.cand[level * self.words..(level + 1) * self.words];
            let mut acc = value;
            for &i in &self.order[pos..] {
                if let Some(couple) = self.c.couples_of(i).find(|&c| test_bit(cand, c)) {
                    acc += self.contrib[couple];
                }
                if acc > target {
                    return true;
                }
            }
            false
        }

        fn run(&mut self, pos: usize, level: usize, value: f64) {
            if pos == self.order.len() || !self.residual_improves(pos, level, value) {
                return;
            }
            let w = self.words;
            let i = self.order[pos];
            for couple in self.c.couples_of(i) {
                if !test_bit(&self.cand[level * w..(level + 1) * w], couple) {
                    continue;
                }
                let gain = self.contrib[couple];
                self.assignment
                    .push((self.c.links[i], self.c.couple_rate[couple]));
                let (lo, hi) = self.cand.split_at_mut((level + 1) * w);
                and_into(&lo[level * w..], self.c.compat_row(couple), &mut hi[..w]);
                if value + gain > self.best_value() + VALUE_EPS {
                    self.best = Some((RatedSet::new(self.assignment.clone()), value + gain));
                }
                self.run(pos + 1, level + 1, value + gain);
                self.assignment.pop();
            }
            self.run(pos + 1, level, value);
        }
    }

    /// [`MaxWeightOracle::max_weight_set`] through [`ResidualSearch`].
    fn residual_reference(oracle: &MaxWeightOracle, weights: &[f64]) -> Option<(RatedSet, f64)> {
        assert_eq!(oracle.mode, Mode::Exact);
        let mut s = oracle.new_scratch();
        if !oracle.prepare(weights, &mut s) {
            return None;
        }
        let words = oracle.c.words;
        s.cand.resize((s.order.len() + 1) * words, 0);
        for &i in &s.order {
            for couple in oracle.c.couples_of(i) {
                set_bit(&mut s.cand[..words], couple);
            }
        }
        let mut search = ResidualSearch {
            c: &oracle.c,
            order: &s.order,
            suffix: &s.suffix,
            contrib: &s.contrib,
            cand: &mut s.cand,
            assignment: Vec::new(),
            best: None,
            words,
        };
        search.run(0, 0, 0.0);
        search.best
    }

    /// SplitMix64: the random declarative draws below are a pure function
    /// of their seed.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random declarative model over `n` disjoint links drawn from
    /// `seed`. Unless `full_ladders`, about one link in twelve is dead and
    /// the others take a non-empty subset of the 54/36/18 ladder; with it,
    /// every link takes the whole ladder. Each pair conflicts at all rates,
    /// at one to three rate pairs of its links' ladders (so a pair may
    /// conflict at 36/36 but not at 54/54), or not at all; `density`
    /// (percent) is the share of pairs that conflict.
    fn random_declarative(
        n: usize,
        seed: u64,
        density: u64,
        full_ladders: bool,
    ) -> (DeclarativeModel, Vec<LinkId>) {
        const LADDER: [f64; 3] = [54.0, 36.0, 18.0];
        let mut rng = SplitMix(seed);
        let mut t = Topology::new();
        let links: Vec<LinkId> = (0..n)
            .map(|i| {
                let a = t.add_node(i as f64 * 10.0, 0.0);
                let b = t.add_node(i as f64 * 10.0 + 5.0, 0.0);
                t.add_link(a, b).unwrap()
            })
            .collect();
        let ladders: Vec<Vec<Rate>> = (0..n)
            .map(|_| {
                if full_ladders {
                    return LADDER.iter().map(|&m| r(m)).collect();
                }
                if rng.below(12) == 0 {
                    return Vec::new();
                }
                let subset = 1 + rng.below(7);
                (0..3)
                    .filter(|&k| subset & (1 << k) != 0)
                    .map(|k| r(LADDER[k]))
                    .collect()
            })
            .collect();
        let mut b = DeclarativeModel::builder(t);
        for (l, ladder) in links.iter().zip(&ladders) {
            if !ladder.is_empty() {
                b = b.alone_rates(*l, ladder);
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                let draw = rng.below(100);
                if draw >= density {
                    continue;
                }
                if draw.is_multiple_of(2) || ladders[i].is_empty() || ladders[j].is_empty() {
                    b = b.conflict_all(links[i], links[j]);
                    continue;
                }
                for _ in 0..=rng.below(3) {
                    let ri = ladders[i][rng.below(ladders[i].len() as u64) as usize];
                    let rj = ladders[j][rng.below(ladders[j].len() as u64) as usize];
                    b = b.conflict_at(links[i], ri, links[j], rj);
                }
            }
        }
        (b.build(), links)
    }

    /// Weights for `links` live links drawn from `seed`: zeros, negatives,
    /// a grid of eighths (exact sums, hence many ties) and arbitrary reals.
    fn random_weights(links: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix(seed);
        (0..links)
            .map(|_| match rng.below(10) {
                0 => 0.0,
                1 => -((1 + rng.below(16)) as f64) / 8.0,
                2 | 3 => (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 4.0,
                _ => (1 + rng.below(24)) as f64 / 8.0,
            })
            .collect()
    }

    /// Asserts that the clique-cover search returns the reference's set and
    /// value bits for three weight vectors drawn from `seed`, and at 10
    /// links or fewer the brute-force optimum.
    fn assert_matches_reference(
        m: &DeclarativeModel,
        links: &[LinkId],
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let oracle = MaxWeightOracle::new(m, links);
        let mut scratch = oracle.new_scratch();
        for round in 0..3 {
            let w = random_weights(oracle.links().len(), seed ^ (round + 1));
            let found = oracle.max_weight_set_with(m, &w, &mut scratch);
            let reference = residual_reference(&oracle, &w);
            match (&found, &reference) {
                (Some((set, value)), Some((ref_set, ref_value))) => {
                    prop_assert_eq!(set, ref_set);
                    prop_assert_eq!(value.to_bits(), ref_value.to_bits());
                    prop_assert!(m.admissible(set.couples()));
                }
                (f, r) => prop_assert_eq!(f.is_none(), r.is_none()),
            }
            if links.len() <= 10 {
                let named: Vec<(LinkId, f64)> = oracle
                    .links()
                    .iter()
                    .copied()
                    .zip(w.iter().copied())
                    .collect();
                let brute = brute_force(m, links, &named);
                let value = found.as_ref().map_or(0.0, |&(_, v)| v);
                prop_assert!(
                    (value - brute).abs() < 1e-9,
                    "search {} != brute force {}",
                    value,
                    brute
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn clique_cover_search_matches_the_residual_reference(
            n in 3usize..=44,
            seed in any::<u64>(),
            density in 5u64..=70,
        ) {
            let (m, links) = random_declarative(n, seed, density, false);
            assert_matches_reference(&m, &links, seed)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// 44 links with the whole ladder: 132 couples, three mask words.
        #[test]
        fn clique_cover_search_matches_the_reference_on_three_mask_words(
            seed in any::<u64>(),
            density in 5u64..=70,
        ) {
            let (m, links) = random_declarative(44, seed, density, true);
            prop_assert_eq!(MaxWeightOracle::new(&m, &links).c.words, 3);
            assert_matches_reference(&m, &links, seed)?;
        }
    }
}

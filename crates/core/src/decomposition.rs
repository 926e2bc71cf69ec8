//! Conflict-component decomposition of the available-bandwidth LP.
//!
//! Links whose couples never conflict at *any* rate combination can be
//! scheduled completely independently: the admissible sets of the union are
//! exactly the unions of per-component admissible sets, and any family of
//! per-component schedules (each within a unit period) can be superimposed.
//! Decomposing the universe into connected components of the *potential
//! conflict* graph therefore turns one exponential enumeration into several
//! small ones.
//!
//! Exactness caveat: in pairwise models ([`awb_net::DeclarativeModel`]) this
//! is an identity. In the physical model, links in different components
//! still leak *some* additive interference into each other, and treating
//! them as independent ignores that residue. A jointly admissible set,
//! restricted to one component, stays admissible there at rates at least as
//! high, so the decomposed LP is a relaxation: its answer is an upper bound
//! of the joint optimum and can exceed it. It is exact when the superimposed
//! witness passes [`LinkRateModel::admissible`]. The decomposition is
//! therefore opt-in
//! ([`AvailableBandwidthOptions::decompose`](crate::AvailableBandwidthOptions)).

use crate::schedule::Schedule;
use awb_net::{LinkId, LinkRateModel};
use awb_sets::RatedSet;

/// The symmetric potential-conflict adjacency of `universe` as per-row
/// bitsets: row `i` has bit `j` set iff **some** pair of alone rates of
/// `universe[i]` and `universe[j]` conflicts.
///
/// This is the pairwise half of [`potential_conflict_components`], split out
/// so that incremental recompilation (`apply_delta`) can recompute only the
/// rows of links a delta touched and splice them into a stored adjacency.
pub fn potential_conflict_adjacency<M: LinkRateModel>(
    model: &M,
    universe: &[LinkId],
) -> Vec<Vec<u64>> {
    let n = universe.len();
    let words = n.div_ceil(64);
    let mut adj = vec![vec![0u64; words]; n];
    let rates: Vec<Vec<awb_phy::Rate>> = universe.iter().map(|&l| model.alone_rates(l)).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            let conflicting = rates[i].iter().any(|&ra| {
                rates[j]
                    .iter()
                    .any(|&rb| model.conflicts((universe[i], ra), (universe[j], rb)))
            });
            if conflicting {
                adj[i][j / 64] |= 1 << (j % 64);
                adj[j][i / 64] |= 1 << (i % 64);
            }
        }
    }
    adj
}

/// Connected components of a potential-conflict adjacency (as produced by
/// [`potential_conflict_adjacency`]) over `universe`. Dead links form
/// singleton components.
///
/// Components are returned with their links sorted, ordered by smallest
/// member — the exact partition and ordering of
/// [`potential_conflict_components`].
pub fn components_from_adjacency(universe: &[LinkId], adjacency: &[Vec<u64>]) -> Vec<Vec<LinkId>> {
    let n = universe.len();
    assert_eq!(adjacency.len(), n, "adjacency rows must match universe");
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for (i, row) in adjacency.iter().enumerate() {
        for (w, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if j <= i {
                    continue; // symmetric: each edge unions once, as (i, j>i)
                }
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<LinkId>> = Default::default();
    for (i, &link) in universe.iter().enumerate() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(link);
    }
    let mut out: Vec<Vec<LinkId>> = groups.into_values().collect();
    for g in &mut out {
        g.sort();
    }
    out.sort_by_key(|g| g[0]);
    out
}

/// Partitions `universe` into connected components of the potential-conflict
/// graph: two links are adjacent iff **some** pair of their alone rates
/// conflicts. Dead links form singleton components.
///
/// Components are returned with their links sorted, ordered by smallest
/// member.
pub fn potential_conflict_components<M: LinkRateModel>(
    model: &M,
    universe: &[LinkId],
) -> Vec<Vec<LinkId>> {
    components_from_adjacency(universe, &potential_conflict_adjacency(model, universe))
}

/// Superimposes per-component schedules that run in *parallel* (their links
/// never conflict) into one joint [`Schedule`].
///
/// Each input schedule occupies at most one unit period; the merge sweeps a
/// common timeline, emitting one entry per maximal interval during which the
/// set of concurrently active component entries is constant. The result's
/// total share is the maximum of the inputs' totals.
///
/// # Panics
///
/// Panics if two input schedules share a link (they would not be parallel).
pub fn merge_parallel_schedules(parts: &[Schedule]) -> Schedule {
    // A link may appear in several entries of one part (time-sharing rated
    // sets of the same link), but never in two different parts — the parts
    // would not be parallel.
    let mut seen_links: std::collections::BTreeMap<LinkId, usize> = Default::default();
    for (pi, p) in parts.iter().enumerate() {
        for (set, _) in p.entries() {
            for l in set.links() {
                let owner = *seen_links.entry(l).or_insert(pi);
                assert!(owner == pi, "link {l} appears in two parallel schedules");
            }
        }
    }
    let mut breakpoints: Vec<f64> = vec![0.0];
    for p in parts {
        let mut t = 0.0;
        for (_, share) in p.entries() {
            t += share;
            breakpoints.push(t);
        }
    }
    breakpoints.sort_by(|a, b| a.total_cmp(b));
    breakpoints.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    let mut entries: Vec<(RatedSet, f64)> = Vec::new();
    for w in breakpoints.windows(2) {
        let (start, end) = (w[0], w[1]);
        let mid = 0.5 * (start + end);
        let mut couples = Vec::new();
        for p in parts {
            let mut t = 0.0;
            for (set, share) in p.entries() {
                if mid >= t && mid < t + share {
                    couples.extend(set.couples().iter().copied());
                    break;
                }
                t += share;
            }
        }
        if !couples.is_empty() {
            entries.push((RatedSet::new(couples), end - start));
        }
    }
    Schedule::new(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use awb_net::{DeclarativeModel, Topology};
    use awb_phy::Rate;

    fn r(m: f64) -> Rate {
        Rate::from_mbps(m)
    }

    /// Links 0-1 conflict, links 2-3 conflict, the groups are independent.
    fn two_component_model() -> (DeclarativeModel, Vec<LinkId>) {
        let mut t = Topology::new();
        let mut links = Vec::new();
        for i in 0..4 {
            let a = t.add_node(i as f64 * 10.0, 0.0);
            let b = t.add_node(i as f64 * 10.0 + 5.0, 0.0);
            links.push(t.add_link(a, b).unwrap());
        }
        let mut b = DeclarativeModel::builder(t);
        for &l in &links {
            b = b.alone_rates(l, &[r(54.0)]);
        }
        b = b
            .conflict_all(links[0], links[1])
            .conflict_all(links[2], links[3]);
        (b.build(), links)
    }

    #[test]
    fn components_split_on_potential_conflicts() {
        let (m, links) = two_component_model();
        let comps = potential_conflict_components(&m, &links);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![links[0], links[1]]);
        assert_eq!(comps[1], vec![links[2], links[3]]);
    }

    #[test]
    fn rate_dependent_conflicts_still_join_components() {
        let (m0, links) = two_component_model();
        // Join the two groups with a single high-rate-only conflict.
        let mut b = DeclarativeModel::builder(m0.topology().clone());
        for &l in &links {
            b = b.alone_rates(l, &[r(54.0), r(36.0)]);
        }
        b = b.conflict_at(links[1], r(54.0), links[2], r(54.0));
        let m = b.build();
        let comps = potential_conflict_components(&m, &links);
        // links[1] and links[2] are potentially conflicting: one component
        // containing both, links[0] and links[3] now isolated.
        assert!(comps
            .iter()
            .any(|c| c.contains(&links[1]) && c.contains(&links[2])));
    }

    #[test]
    fn merge_overlays_parallel_parts() {
        let (m, links) = two_component_model();
        let s1 = Schedule::new(vec![
            (vec![(links[0], r(54.0))].into_iter().collect(), 0.6),
            (vec![(links[1], r(54.0))].into_iter().collect(), 0.4),
        ]);
        let s2 = Schedule::new(vec![
            (vec![(links[2], r(54.0))].into_iter().collect(), 0.5),
            (vec![(links[3], r(54.0))].into_iter().collect(), 0.5),
        ]);
        let merged = merge_parallel_schedules(&[s1.clone(), s2.clone()]);
        assert!(merged.is_valid(&m));
        assert!((merged.total_share() - 1.0).abs() < 1e-9);
        // Throughputs are preserved.
        for &l in &links {
            let want = s1.link_throughput(l) + s2.link_throughput(l);
            assert!(
                (merged.link_throughput(l) - want).abs() < 1e-9,
                "{l}: {} vs {want}",
                merged.link_throughput(l)
            );
        }
        // The merged entries mix links of both components.
        assert!(merged.entries().iter().any(|(set, _)| set.len() == 2));
    }

    #[test]
    #[should_panic(expected = "two parallel schedules")]
    fn merge_rejects_shared_links() {
        let (_, links) = two_component_model();
        let s = Schedule::new(vec![(vec![(links[0], r(54.0))].into_iter().collect(), 0.5)]);
        let _ = merge_parallel_schedules(&[s.clone(), s]);
    }

    #[test]
    fn merge_handles_empty_and_unequal_lengths() {
        let (_, links) = two_component_model();
        let s1 = Schedule::new(vec![(vec![(links[0], r(54.0))].into_iter().collect(), 0.3)]);
        let merged = merge_parallel_schedules(&[s1, Schedule::empty()]);
        assert!((merged.total_share() - 0.3).abs() < 1e-12);
        assert_eq!(merge_parallel_schedules(&[]).entries().len(), 0);
    }
}

//! Property tests for the available-bandwidth model on random declarative
//! networks: LP invariants, Proposition 3 (maximal sets suffice), bound
//! orderings, and monotonicity in the background load.

use awb_core::bounds::{clique_upper_bound, lower_bound_max_set_size, UpperBoundOptions};
use awb_core::{
    available_bandwidth, available_bandwidth_with_sets, feasibility, AvailableBandwidthOptions,
    CoreError, Flow,
};
use awb_net::{DeclarativeModel, LinkId, Path, Topology};
use awb_phy::Rate;
use awb_sets::{enumerate_admissible, maximal_independent_sets, EnumerationOptions};
use proptest::prelude::*;

fn r(m: f64) -> Rate {
    Rate::from_mbps(m)
}

/// A random "chain + cross traffic" instance: an n-hop chain path with
/// interference spread `spread`, plus one background link conflicting with a
/// random chain hop.
#[derive(Debug, Clone)]
struct Instance {
    hops: usize,
    spread: usize,
    bg_conflicts_with: usize,
    bg_demand: f64,
    two_rates: bool,
}

fn instance() -> impl Strategy<Value = Instance> {
    (2usize..=5, 1usize..=2, any::<bool>(), 0.0f64..10.0).prop_flat_map(
        |(hops, spread, two_rates, bg_demand)| {
            (0..hops).prop_map(move |bg_conflicts_with| Instance {
                hops,
                spread,
                bg_conflicts_with,
                bg_demand,
                two_rates,
            })
        },
    )
}

fn build(inst: &Instance) -> (DeclarativeModel, Path, Vec<Flow>) {
    let mut t = Topology::new();
    let nodes: Vec<_> = (0..=inst.hops)
        .map(|i| t.add_node(i as f64 * 10.0, 0.0))
        .collect();
    let chain: Vec<LinkId> = nodes
        .windows(2)
        .map(|w| t.add_link(w[0], w[1]).expect("fresh nodes"))
        .collect();
    let ba = t.add_node(0.0, 100.0);
    let bb = t.add_node(10.0, 100.0);
    let bg = t.add_link(ba, bb).expect("fresh nodes");
    let rates: Vec<Rate> = if inst.two_rates {
        vec![r(54.0), r(36.0)]
    } else {
        vec![r(54.0)]
    };
    let mut b = DeclarativeModel::builder(t);
    for &l in chain.iter().chain([&bg]) {
        b = b.alone_rates(l, &rates);
    }
    for i in 0..inst.hops {
        for j in (i + 1)..inst.hops.min(i + inst.spread + 1) {
            b = b.conflict_all(chain[i], chain[j]);
        }
    }
    b = b.conflict_all(bg, chain[inst.bg_conflicts_with]);
    let model = b.build();
    let path = Path::new(model.topology(), chain).expect("chain links form a path");
    let bg_path = Path::new(model.topology(), vec![bg]).expect("single link path");
    let background = vec![Flow::new(bg_path, inst.bg_demand).expect("demand is valid")];
    (model, path, background)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedule_witness_is_consistent(inst in instance()) {
        let (model, path, background) = build(&inst);
        let out = available_bandwidth(
            &model, &background, &path, &AvailableBandwidthOptions::default());
        let Ok(out) = out else {
            // Background can be infeasible only if its demand exceeds what
            // its link supports together with nothing else — not possible
            // here (54 or 36 >> 10), so reject.
            return Err(TestCaseError::fail("unexpected infeasibility"));
        };
        let s = out.schedule();
        prop_assert!(s.is_valid(&model));
        prop_assert!(s.total_share() <= 1.0 + 1e-7);
        let dust = AvailableBandwidthOptions::default().dust_epsilon;
        prop_assert!(s.entries().iter().all(|(_, share)| *share > dust), "dust entry kept");
        // The witness delivers background + f on every relevant link.
        for flow in &background {
            for &l in flow.path().links() {
                prop_assert!(
                    s.link_throughput(l) + 1e-6 >= flow.demand_mbps(),
                    "background under-served on {l}"
                );
            }
        }
        for &l in path.links() {
            prop_assert!(
                s.link_throughput(l) + 1e-6 >= out.bandwidth_mbps(),
                "new path under-served on {l}"
            );
        }
    }

    #[test]
    fn proposition_3_maximal_sets_suffice(inst in instance()) {
        // The LP over *maximal* independent sets equals the LP over the
        // full admissible pool (Prop. 3 / Eq. 4).
        let (model, path, background) = build(&inst);
        let universe: Vec<LinkId> = {
            let mut u: Vec<LinkId> = background
                .iter()
                .flat_map(|f| f.path().links().iter().copied())
                .chain(path.links().iter().copied())
                .collect();
            u.sort();
            u.dedup();
            u
        };
        let all = enumerate_admissible(
            &model, &universe,
            &EnumerationOptions { prune_dominated: false, ..EnumerationOptions::default() },
        );
        let maximal = maximal_independent_sets(&model, &universe);
        prop_assert!(maximal.len() <= all.len());
        let opts = AvailableBandwidthOptions::default();
        let full = available_bandwidth_with_sets(&all, &background, &path, &opts)
            .expect("instance is feasible");
        let max_only = available_bandwidth_with_sets(&maximal, &background, &path, &opts)
            .expect("instance is feasible");
        prop_assert!(
            (full.bandwidth_mbps() - max_only.bandwidth_mbps()).abs() < 1e-6,
            "full {} vs maximal {}",
            full.bandwidth_mbps(),
            max_only.bandwidth_mbps()
        );
    }

    #[test]
    fn more_background_never_helps(inst in instance()) {
        let (model, path, background) = build(&inst);
        let opts = AvailableBandwidthOptions::default();
        let base = available_bandwidth(&model, &background, &path, &opts)
            .expect("instance is feasible")
            .bandwidth_mbps();
        let heavier: Vec<Flow> = background
            .iter()
            .map(|f| f.with_demand(f.demand_mbps() + 5.0).expect("demand valid"))
            .collect();
        match available_bandwidth(&model, &heavier, &path, &opts) {
            Ok(out) => prop_assert!(out.bandwidth_mbps() <= base + 1e-6),
            Err(CoreError::BackgroundInfeasible) => {} // even stronger
            Err(e) => return Err(TestCaseError::fail(format!("solver failed: {e}"))),
        }
    }

    #[test]
    fn bounds_sandwich_the_optimum(inst in instance()) {
        let (model, path, background) = build(&inst);
        let opts = AvailableBandwidthOptions::default();
        let exact = available_bandwidth(&model, &background, &path, &opts)
            .expect("instance is feasible")
            .bandwidth_mbps();
        let upper = clique_upper_bound(
            &model, &background, &path,
            &UpperBoundOptions { max_rate_vectors: 4096 },
        );
        match upper {
            Ok(u) => prop_assert!(u + 1e-6 >= exact, "upper {u} < exact {exact}"),
            Err(CoreError::TooManyRateVectors { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("upper bound failed: {e}"))),
        }
        for cap in 1..=2usize {
            let lower = lower_bound_max_set_size(&model, &background, &path, cap);
            match lower {
                Ok(l) => prop_assert!(l <= exact + 1e-6, "lower {l} > exact {exact}"),
                Err(CoreError::BackgroundInfeasible) => {} // restricted pool may not serve bg
                Err(e) => return Err(TestCaseError::fail(format!("lower bound failed: {e}"))),
            }
        }
    }

    #[test]
    fn admission_threshold_matches_available_bandwidth(inst in instance()) {
        let (model, path, background) = build(&inst);
        let opts = AvailableBandwidthOptions::default();
        let avail = available_bandwidth(&model, &background, &path, &opts)
            .expect("instance is feasible")
            .bandwidth_mbps();
        prop_assert!(feasibility::admits(&model, &background, &path, avail - 0.01)
            .expect("feasible instance"));
        prop_assert!(!feasibility::admits(&model, &background, &path, avail + 0.01)
            .expect("feasible instance"));
    }

    #[test]
    fn decomposition_is_exact_for_pairwise_models(inst in instance()) {
        let (model, path, background) = build(&inst);
        let mono = available_bandwidth(
            &model, &background, &path, &AvailableBandwidthOptions::default())
            .expect("instance is feasible");
        let deco = available_bandwidth(
            &model, &background, &path,
            &AvailableBandwidthOptions { decompose: true, ..Default::default() })
            .expect("instance is feasible");
        prop_assert!(
            (mono.bandwidth_mbps() - deco.bandwidth_mbps()).abs() < 1e-6,
            "monolithic {} vs decomposed {}",
            mono.bandwidth_mbps(),
            deco.bandwidth_mbps()
        );
        // The decomposed witness is still a valid joint schedule delivering
        // everything.
        let s = deco.schedule();
        prop_assert!(s.is_valid(&model));
        prop_assert!(s.total_share() <= 1.0 + 1e-7);
        let dust = AvailableBandwidthOptions::default().dust_epsilon;
        prop_assert!(s.entries().iter().all(|(_, share)| *share > dust), "dust entry kept");
        for flow in &background {
            for &l in flow.path().links() {
                prop_assert!(s.link_throughput(l) + 1e-6 >= flow.demand_mbps());
            }
        }
        for &l in path.links() {
            prop_assert!(s.link_throughput(l) + 1e-6 >= deco.bandwidth_mbps());
        }
    }

    #[test]
    fn min_airtime_is_monotone_and_saturates(inst in instance()) {
        let (model, path, background) = build(&inst);
        let mut flows = background.clone();
        flows.push(Flow::new(path.clone(), 1.0).expect("demand valid"));
        let Ok((a1, s1)) = feasibility::min_airtime(&model, &flows) else {
            return Err(TestCaseError::fail("unexpected infeasibility"));
        };
        prop_assert!((0.0..=1.0 + 1e-9).contains(&a1));
        prop_assert!(s1.is_valid(&model));
        // Doubling demands at least doubles... no: airtime is superadditive
        // in demand scaling: scaling all demands by k scales min airtime by
        // exactly k (LP scaling).
        let doubled: Vec<Flow> = flows
            .iter()
            .map(|f| f.with_demand(f.demand_mbps() * 2.0).expect("demand valid"))
            .collect();
        match feasibility::min_airtime(&model, &doubled) {
            Ok((a2, _)) => prop_assert!(
                (a2 - 2.0 * a1).abs() < 1e-6,
                "airtime should scale linearly: {a1} -> {a2}"
            ),
            Err(CoreError::BackgroundInfeasible) => prop_assert!(2.0 * a1 > 1.0 - 1e-6),
            Err(e) => return Err(TestCaseError::fail(format!("solver failed: {e}"))),
        }
    }
}

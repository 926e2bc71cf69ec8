//! Property tests for the column-generation solver: on random declarative
//! and SINR instances the restricted master must terminate at exactly the
//! full-enumeration optimum (the pricing oracle certifies no column is
//! missing), with matching behavior under decomposition and below the Eq. 9
//! upper bound.

use awb_core::bounds::{clique_upper_bound, UpperBoundOptions};
use awb_core::{
    available_bandwidth, AvailableBandwidth, AvailableBandwidthOptions, CoreError, Flow, SolverKind,
};
use awb_net::{DeclarativeModel, LinkId, LinkRateModel, Path, SinrModel, Topology};
use awb_phy::{Phy, Rate};
use proptest::prelude::*;

fn r(m: f64) -> Rate {
    Rate::from_mbps(m)
}

fn colgen_opts() -> AvailableBandwidthOptions {
    AvailableBandwidthOptions {
        solver: SolverKind::ColumnGeneration,
        ..AvailableBandwidthOptions::default()
    }
}

/// The same "chain + cross traffic" family as `proptest_core.rs`: an n-hop
/// declarative chain with interference spread, plus one background link
/// conflicting with a random hop.
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

/// An SINR chain: `hops` nodes in a line at `hop_length` meters, the new
/// path over all hops, with background on the first hop. Exercises the
/// oracle's hybrid mask-prefilter + joint-admissibility mode (additive
/// interference is not pairwise-exact).
fn build_sinr(hops: usize, hop_length: f64, bg_demand: f64) -> (SinrModel, Path, Vec<Flow>) {
    let mut t = Topology::new();
    let nodes: Vec<_> = (0..=hops)
        .map(|i| t.add_node(i as f64 * hop_length, 0.0))
        .collect();
    let chain: Vec<LinkId> = nodes
        .windows(2)
        .map(|w| t.add_link(w[0], w[1]).expect("fresh nodes"))
        .collect();
    let model = SinrModel::new(t, Phy::paper_default());
    let path = Path::new(model.topology(), chain.clone()).expect("chain links form a path");
    let background = if bg_demand > 0.0 {
        let first = Path::new(model.topology(), vec![chain[0]]).expect("single link path");
        vec![Flow::new(first, bg_demand).expect("demand is valid")]
    } else {
        Vec::new()
    };
    (model, path, background)
}

/// Checks that `out`'s witness is a genuine schedule under `model`:
/// admissible sets, total share within the period, no entry at or below the
/// dust threshold, and every background demand and `f` itself delivered.
fn check_witness<M: LinkRateModel>(
    model: &M,
    out: &AvailableBandwidth,
    background: &[Flow],
    path: &Path,
) -> Result<(), TestCaseError> {
    let s = out.schedule();
    prop_assert!(s.is_valid(model));
    prop_assert!(s.total_share() <= 1.0 + 1e-7);
    let dust = AvailableBandwidthOptions::default().dust_epsilon;
    prop_assert!(
        s.entries().iter().all(|(_, share)| *share > dust),
        "dust entry kept"
    );
    for flow in background {
        for &l in flow.path().links() {
            prop_assert!(s.link_throughput(l) + 1e-6 >= flow.demand_mbps());
        }
    }
    for &l in path.links() {
        prop_assert!(s.link_throughput(l) + 1e-6 >= out.bandwidth_mbps());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn colgen_matches_full_enumeration(inst in instance()) {
        let (model, path, background) = build(&inst);
        let full = available_bandwidth(
            &model, &background, &path, &AvailableBandwidthOptions::default())
            .expect("instance is feasible");
        let cg = available_bandwidth(&model, &background, &path, &colgen_opts())
            .expect("colgen must agree on feasibility");
        prop_assert!(
            (full.bandwidth_mbps() - cg.bandwidth_mbps()).abs() < 1e-6,
            "full {} vs colgen {}",
            full.bandwidth_mbps(),
            cg.bandwidth_mbps()
        );
        // The colgen witness is a genuine schedule delivering everything.
        check_witness(&model, &cg, &background, &path)?;
    }

    #[test]
    fn colgen_matches_under_decomposition(inst in instance()) {
        let (model, path, background) = build(&inst);
        let full = available_bandwidth(
            &model, &background, &path,
            &AvailableBandwidthOptions { decompose: true, ..Default::default() })
            .expect("instance is feasible");
        let cg = available_bandwidth(
            &model, &background, &path,
            &AvailableBandwidthOptions { decompose: true, ..colgen_opts() })
            .expect("colgen must agree on feasibility");
        prop_assert!(
            (full.bandwidth_mbps() - cg.bandwidth_mbps()).abs() < 1e-6,
            "decomposed full {} vs colgen {}",
            full.bandwidth_mbps(),
            cg.bandwidth_mbps()
        );
    }

    #[test]
    fn colgen_stays_below_the_eq9_upper_bound(inst in instance()) {
        let (model, path, background) = build(&inst);
        let cg = available_bandwidth(&model, &background, &path, &colgen_opts())
            .expect("instance is feasible");
        match clique_upper_bound(
            &model, &background, &path,
            &UpperBoundOptions { max_rate_vectors: 4096 },
        ) {
            Ok(u) => prop_assert!(
                u + 1e-6 >= cg.bandwidth_mbps(),
                "upper {u} < colgen {}",
                cg.bandwidth_mbps()
            ),
            Err(CoreError::TooManyRateVectors { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("upper bound failed: {e}"))),
        }
    }

    #[test]
    fn colgen_agrees_on_infeasibility(inst in instance()) {
        // Scale the background far past capacity: both solvers must report
        // BackgroundInfeasible (stage A certifies the same minimum airtime).
        let (model, path, background) = build(&inst);
        let heavy: Vec<Flow> = background
            .iter()
            .map(|f| f.with_demand(f.demand_mbps() + 60.0).expect("demand valid"))
            .collect();
        let full = available_bandwidth(
            &model, &heavy, &path, &AvailableBandwidthOptions::default());
        let cg = available_bandwidth(&model, &heavy, &path, &colgen_opts());
        match (full, cg) {
            (Ok(a), Ok(b)) => prop_assert!(
                (a.bandwidth_mbps() - b.bandwidth_mbps()).abs() < 1e-6
            ),
            (Err(CoreError::BackgroundInfeasible), Err(CoreError::BackgroundInfeasible)) => {}
            (a, b) => return Err(TestCaseError::fail(format!(
                "solvers disagree: full {a:?} vs colgen {b:?}"
            ))),
        }
    }

    #[test]
    fn colgen_matches_full_enumeration_on_sinr_chains(
        hops in 2usize..=4,
        hop_length in 40.0f64..120.0,
        bg_demand in 0.0f64..4.0,
    ) {
        let (model, path, background) = build_sinr(hops, hop_length, bg_demand);
        let full = available_bandwidth(
            &model, &background, &path, &AvailableBandwidthOptions::default());
        let cg = available_bandwidth(&model, &background, &path, &colgen_opts());
        match (full, cg) {
            (Ok(a), Ok(b)) => {
                prop_assert!(
                    (a.bandwidth_mbps() - b.bandwidth_mbps()).abs() < 1e-6,
                    "sinr full {} vs colgen {}",
                    a.bandwidth_mbps(),
                    b.bandwidth_mbps()
                );
                check_witness(&model, &a, &background, &path)?;
                check_witness(&model, &b, &background, &path)?;
            }
            (Err(CoreError::BackgroundInfeasible), Err(CoreError::BackgroundInfeasible)) => {}
            (a, b) => return Err(TestCaseError::fail(format!(
                "solvers disagree: full {a:?} vs colgen {b:?}"
            ))),
        }
    }
}

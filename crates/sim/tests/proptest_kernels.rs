//! The compiled-kernel contract: [`Simulator::run`] reproduces
//! [`Simulator::run_reference`] **bit for bit** — same RNG consumption
//! order, same float operation order, `assert_eq!` on the whole
//! [`SimReport`] — across random declarative and SINR models, all three
//! contention modes, and mixed saturated/rate-limited traffic. Plus: the
//! campaign fan-out is bit-identical to the sequential loop for any thread
//! count.

use awb_net::{DeclarativeModel, LinkId, LinkRateModel, Path, Topology};
use awb_phy::{Phy, Rate};
use awb_sim::{campaign, Contention, SimConfig, Simulator};
use awb_workloads::{chain_model, RandomTopology, RandomTopologyConfig};
use proptest::prelude::*;

fn contention() -> impl Strategy<Value = Contention> {
    prop_oneof![
        Just(Contention::OrderedCsma),
        (0.05f64..=0.95).prop_map(Contention::PPersistent),
        (1u32..=4, 0u32..=4).prop_map(|(min_exp, extra)| Contention::Dcf {
            cw_min: 1 << min_exp,
            cw_max: 1 << (min_exp + extra),
        }),
    ]
}

/// Runs the same configured simulation through the compiled kernels and the
/// reference loop and demands exact report equality.
fn assert_engines_agree<M: awb_net::LinkRateModel>(
    model: &M,
    flows: &[(Path, Option<f64>)],
    contention: Contention,
    seed: u64,
    slots: u64,
) {
    let mut sim = Simulator::new(
        model,
        SimConfig {
            slots,
            seed,
            contention,
            ..SimConfig::default()
        },
    );
    for (path, demand) in flows {
        sim.add_flow(path.clone(), *demand);
    }
    let reference = sim.run_reference(model);
    let compiled = sim.run(model);
    assert_eq!(reference, compiled, "{contention:?} seed {seed}");
}

/// A random declarative chain: per-link rates, conflicts within a window,
/// hearing within a (possibly different) window — the pairwise kernel path.
#[derive(Debug, Clone)]
struct DeclarativeInstance {
    rates: Vec<f64>,
    conflict_spread: usize,
    hear_spread: usize,
    demands: Vec<Option<f64>>,
}

fn declarative_instance() -> impl Strategy<Value = DeclarativeInstance> {
    (2usize..=6).prop_flat_map(|n| {
        (
            proptest::collection::vec(
                prop_oneof![Just(54.0), Just(36.0), Just(18.0), Just(6.0)],
                n,
            ),
            0usize..=2,
            0usize..=2,
            proptest::collection::vec(
                prop_oneof![Just(None), (1.0f64..=30.0).prop_map(Some)],
                1..=3,
            ),
        )
            .prop_map(|(rates, conflict_spread, hear_spread, demands)| {
                DeclarativeInstance {
                    rates,
                    conflict_spread,
                    hear_spread,
                    demands,
                }
            })
    })
}

fn build_declarative(inst: &DeclarativeInstance) -> (DeclarativeModel, Vec<(Path, Option<f64>)>) {
    let n = inst.rates.len();
    let mut t = Topology::new();
    let nodes: Vec<_> = (0..=n).map(|i| t.add_node(i as f64 * 10.0, 0.0)).collect();
    let links: Vec<LinkId> = nodes
        .windows(2)
        .map(|w| t.add_link(w[0], w[1]).expect("fresh nodes"))
        .collect();
    let mut b = DeclarativeModel::builder(t);
    for (i, &l) in links.iter().enumerate() {
        b = b.alone_rates(l, &[Rate::from_mbps(inst.rates[i])]);
    }
    for i in 0..n {
        for j in (i + 1)..n.min(i + inst.conflict_spread + 1) {
            b = b.conflict_all(links[i], links[j]);
        }
        // Each link is heard by the endpoints of links within the hearing
        // window (always by its own transmitter).
        for j in i.saturating_sub(inst.hear_spread)..n.min(i + inst.hear_spread + 1) {
            b = b.hears(nodes[j], links[i]);
            b = b.hears(nodes[j + 1], links[i]);
        }
    }
    let model = b.build();
    let t = model.topology();
    // One flow along the whole chain, plus per-demand single-hop flows
    // spread over the links.
    let mut flows = vec![(
        Path::new(t, links.clone()).expect("chain is contiguous"),
        inst.demands[0],
    )];
    for (k, d) in inst.demands.iter().enumerate().skip(1) {
        let l = links[k % n];
        flows.push((Path::new(t, vec![l]).expect("single link"), *d));
    }
    (model, flows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_matches_generic_on_declarative_models(
        inst in declarative_instance(),
        contention in contention(),
        seed in 0u64..1_000,
    ) {
        let (model, flows) = build_declarative(&inst);
        assert_engines_agree(&model, &flows, contention, seed, 400);
    }

    #[test]
    fn compiled_matches_generic_on_sinr_chains(
        hops in 1usize..=5,
        hop_length in 40.0f64..=90.0,
        demand in prop_oneof![Just(None), (1.0f64..=40.0).prop_map(Some)],
        contention in contention(),
        seed in 0u64..1_000,
    ) {
        let (model, path) = chain_model(hops, hop_length, Phy::paper_default());
        let flows = vec![(path.clone(), demand), (path, None)];
        assert_engines_agree(&model, &flows, contention, seed, 400);
    }

    #[test]
    fn compiled_matches_generic_on_random_sinr_fields(
        num_nodes in 8usize..=16,
        side in 150.0f64..=400.0,
        topo_seed in 0u64..1_000,
        contention in contention(),
        seed in 0u64..1_000,
    ) {
        let topo = RandomTopology::generate_with_phy(
            RandomTopologyConfig {
                width: side,
                height: side,
                num_nodes,
                seed: topo_seed,
            },
            Phy::paper_default(),
        );
        let model = topo.into_model();
        let t = model.topology();
        // Saturated single-hop flows on the first few live links: enough
        // concurrency to exercise carrier sense and capture.
        let flows: Vec<(Path, Option<f64>)> = t
            .links()
            .map(|l| l.id())
            .filter(|&l| model.max_alone_rate(l).is_some())
            .take(4)
            .enumerate()
            .map(|(i, l)| {
                let demand = if i % 2 == 0 { None } else { Some(8.0 + i as f64) };
                (Path::new(t, vec![l]).expect("single link"), demand)
            })
            .collect();
        assert_engines_agree(&model, &flows, contention, seed, 400);
    }

    #[test]
    fn fan_out_is_bit_identical_for_any_thread_count(
        num_jobs in 0usize..=9,
        threads in 0usize..=8,
        contention in contention(),
    ) {
        let (model, path) = chain_model(2, 60.0, Phy::paper_default());
        let job = |i: usize| {
            let mut sim = Simulator::new(
                &model,
                SimConfig {
                    slots: 300,
                    seed: i as u64,
                    contention,
                    ..SimConfig::default()
                },
            );
            sim.add_flow(path.clone(), None);
            sim.run(&model)
        };
        let sequential = campaign::fan_out(num_jobs, 1, job);
        let parallel = campaign::fan_out(num_jobs, threads, job);
        prop_assert_eq!(sequential, parallel);
    }
}

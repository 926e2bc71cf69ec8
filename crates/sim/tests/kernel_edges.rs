//! Compiled-kernel cases the random proptests do not reach: node masks
//! longer than one word, runs longer than the busy counters' flush period,
//! flows whose next hop is dead, and links fed by several flows. Each must
//! reproduce [`Simulator::run_reference`] bit for bit.

use awb_net::{NodeId, Path, SinrModel, Topology};
use awb_phy::Phy;
use awb_sim::{Contention, SimConfig, Simulator};

const CONTENTIONS: [Contention; 3] = [
    Contention::OrderedCsma,
    Contention::PPersistent(0.5),
    Contention::Dcf {
        cw_min: 4,
        cw_max: 64,
    },
];

fn assert_engines_agree(
    model: &SinrModel,
    flows: &[(Path, Option<f64>)],
    contention: Contention,
    slots: u64,
) {
    let mut sim = Simulator::new(
        model,
        SimConfig {
            slots,
            contention,
            seed: 11,
            ..SimConfig::default()
        },
    );
    for (path, demand) in flows {
        sim.add_flow(path.clone(), *demand);
    }
    assert_eq!(sim.run_reference(model), sim.run(model), "{contention:?}");
}

/// A chain whose nodes straddle the first node-word boundary (ids 60..=68
/// after 60 bystanders), long enough to cross a busy-counter flush.
#[test]
fn busy_counts_cross_node_words_and_flushes() {
    let mut t = Topology::new();
    for i in 0..60 {
        t.add_node(5_000.0 + 10.0 * f64::from(i), 5_000.0);
    }
    let chain: Vec<NodeId> = (0..9)
        .map(|i| t.add_node(60.0 * f64::from(i), 0.0))
        .collect();
    let links: Vec<_> = chain
        .windows(2)
        .map(|w| t.add_link(w[0], w[1]).unwrap())
        .collect();
    let model = SinrModel::new(t, Phy::paper_default());
    let path = Path::new(model.topology(), links).unwrap();
    let flows = [(path.clone(), None), (path, Some(6.0))];
    assert_engines_agree(&model, &flows, Contention::OrderedCsma, 70_000);
}

/// A relay path with a dead middle hop (250 m), a second flow sharing its
/// first link, and a single-hop flow of its own on the far side.
#[test]
fn dead_hops_and_shared_links_match_the_reference() {
    let mut t = Topology::new();
    let n: Vec<NodeId> = [0.0, 50.0, 300.0, 350.0, 400.0]
        .iter()
        .map(|&x| t.add_node(x, 0.0))
        .collect();
    let l01 = t.add_link(n[0], n[1]).unwrap();
    let dead = t.add_link(n[1], n[2]).unwrap();
    let l23 = t.add_link(n[2], n[3]).unwrap();
    let l34 = t.add_link(n[3], n[4]).unwrap();
    let model = SinrModel::new(t, Phy::paper_default());
    let topology = model.topology();
    let flows = [
        (Path::new(topology, vec![l01, dead, l23]).unwrap(), None),
        (Path::new(topology, vec![l01]).unwrap(), Some(9.0)),
        (Path::new(topology, vec![l23, l34]).unwrap(), Some(12.0)),
    ];
    for contention in CONTENTIONS {
        assert_engines_agree(&model, &flows, contention, 3_000);
    }
}

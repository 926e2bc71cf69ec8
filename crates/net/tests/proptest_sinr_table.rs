//! The node-pair power table of [`SinrModel`] against a test-local
//! reference that rebuilds the link-pair table entry by entry
//! (`phy.received_power(topology.distance(tx(t), rx(r)))` for every link
//! pair) and answers with the live Eq. 1/3 formulas: the sensitivity and
//! SINR comparisons of `admissible` and [`Phy::max_rate_under_interference`].
//! Every answer must match by `to_bits`.
//!
//! The fields include nodes without links, links sharing a transmitter or a
//! receiver, relay chains where `tx(i + 1) == rx(i)`, whose interference
//! term is a distance-0 (clamped) power, and links exactly one published
//! decode distance long, where the calibrated noise floor puts a rate's SNR
//! on its threshold and only the comparisons' tolerance decides.

use awb_net::{LinkId, LinkRateModel, NodeId, SinrModel, Topology};
use awb_phy::{LogDistance, Phy, Rate, RateTable};
use proptest::prelude::*;

/// A random SINR field: positions, requested links (duplicates and self
/// loops are skipped), one relay chain, a radio choice, and optionally a
/// link from the origin exactly one published decode distance long.
#[derive(Debug, Clone)]
struct Field {
    positions: Vec<(f64, f64)>,
    links: Vec<(usize, usize)>,
    chain: Vec<usize>,
    radio: usize,
    edge: Option<usize>,
}

fn field() -> impl Strategy<Value = Field> {
    (2usize..=12).prop_flat_map(|n| {
        (
            proptest::collection::vec((0.0f64..=240.0, 0.0f64..=240.0), n),
            proptest::collection::vec((0..n, 0..n), 0..=14),
            proptest::collection::vec(0..n, 0..=5),
            0usize..=3,
            prop_oneof![Just(None), (0usize..4).prop_map(Some)],
        )
            .prop_map(|(positions, links, chain, radio, edge)| Field {
                positions,
                links,
                chain,
                radio,
                edge,
            })
    })
}

fn radio(choice: usize) -> Phy {
    match choice {
        0 => Phy::paper_default(),
        1 => Phy::paper_default().with_noise(1e-14),
        2 => Phy::new(LogDistance::new(3.0), RateTable::ieee80211b_typical(), 2.0),
        _ => Phy::new(LogDistance::new(2.5), RateTable::two_rate_chain(), 1.0),
    }
}

fn build(f: &Field) -> SinrModel {
    let phy = radio(f.radio);
    let mut positions = f.positions.clone();
    if let Some(k) = f.edge {
        let spec = phy.rates().iter().nth(k % phy.rates().len()).unwrap();
        positions[0] = (0.0, 0.0);
        positions[1] = (spec.max_distance, 0.0);
    }
    let mut t = Topology::new();
    for &(x, y) in &positions {
        t.add_node(x, y);
    }
    let node = NodeId::from_index;
    if f.edge.is_some() {
        t.add_link(node(0), node(1)).unwrap();
    }
    for &(a, b) in &f.links {
        let _ = t.add_link(node(a), node(b));
    }
    for w in f.chain.windows(2) {
        let _ = t.add_link(node(w[0]), node(w[1]));
    }
    SinrModel::new(t, phy)
}

/// The link-pair model the node-pair table replaces, written out.
struct Reference<'a> {
    topology: &'a Topology,
    phy: &'a Phy,
    /// `table[t][r]`: power of the transmitter of link `t` at the receiver
    /// of link `r`.
    table: Vec<Vec<f64>>,
}

impl<'a> Reference<'a> {
    fn new(model: &'a SinrModel) -> Reference<'a> {
        let topology = model.topology();
        let phy = model.phy();
        let table = topology
            .links()
            .map(|t| {
                topology
                    .links()
                    .map(|r| phy.received_power(topology.distance(t.tx(), r.rx()).unwrap()))
                    .collect()
            })
            .collect();
        Reference {
            topology,
            phy,
            table,
        }
    }

    fn interference_at(&self, link: LinkId, active: &[LinkId]) -> f64 {
        active
            .iter()
            .filter(|&&a| a != link)
            .map(|a| self.table[a.index()][link.index()])
            .sum()
    }

    fn max_rate_in_set(&self, link: LinkId, active: &[LinkId]) -> Option<Rate> {
        let d = self.topology.link_length(link).unwrap();
        self.phy
            .max_rate_under_interference(d, self.interference_at(link, active))
    }

    fn victim_max_rate(&self, link: LinkId, others: &[(LinkId, Rate)]) -> Option<Rate> {
        let active: Vec<LinkId> = std::iter::once(link)
            .chain(others.iter().map(|&(l, _)| l).filter(|&l| l != link))
            .collect();
        self.max_rate_in_set(link, &active)
    }

    fn admissible(&self, assignment: &[(LinkId, Rate)]) -> bool {
        for &(link, rate) in assignment {
            if rate.is_zero() {
                return false;
            }
            let Some(spec) = self.phy.rates().spec_for(rate) else {
                return false;
            };
            let j = link.index();
            let pr = self.table[j][j];
            let interference: f64 = assignment
                .iter()
                .filter(|(other, _)| *other != link)
                .map(|(other, _)| self.table[other.index()][j])
                .sum();
            let sensitivity = self.phy.received_power(spec.max_distance);
            let sinr = pr / (interference + self.phy.noise());
            if pr < sensitivity * (1.0 - 1e-12) || sinr < spec.sinr_linear() * (1.0 - 1e-12) {
                return false;
            }
        }
        true
    }

    fn alone_rates(&self, link: LinkId) -> Vec<Rate> {
        let d = self.topology.link_length(link).unwrap();
        match self.phy.max_rate_alone(d) {
            Some(max) => self.phy.rates().rates_up_to(max),
            None => Vec::new(),
        }
    }
}

fn bits(rate: Option<Rate>) -> Option<u64> {
    rate.map(|r| r.as_mbps().to_bits())
}

/// Draws an ordered subset of distinct links (in draw order) with a rate
/// each: one of the radio's rates, one outside its table, or zero.
fn assignment(model: &SinrModel, draws: &[(usize, usize)]) -> Vec<(LinkId, Rate)> {
    let l = model.topology().num_links();
    let rates: Vec<Rate> = model.phy().rates().iter().map(|s| s.rate).collect();
    let mut out: Vec<(LinkId, Rate)> = Vec::new();
    for &(link, choice) in draws {
        let link = LinkId::from_index(link % l);
        if out.iter().any(|&(seen, _)| seen == link) {
            continue;
        }
        let rate = match choice % (rates.len() + 2) {
            k if k < rates.len() => rates[k],
            k if k == rates.len() => Rate::from_mbps(13.0),
            _ => Rate::ZERO,
        };
        out.push((link, rate));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn node_pair_table_answers_like_the_link_pair_table(
        f in field(),
        draws in proptest::collection::vec(
            proptest::collection::vec((0usize..64, 0usize..8), 0..=7),
            1..=6,
        ),
    ) {
        let model = build(&f);
        let reference = Reference::new(&model);
        let l = model.topology().num_links();
        prop_assume!(l > 0);
        for link in model.topology().links().map(|x| x.id()) {
            prop_assert_eq!(model.alone_rates(link), reference.alone_rates(link));
        }
        for draw in &draws {
            let assignment = assignment(&model, draw);
            prop_assert_eq!(
                model.admissible(&assignment),
                reference.admissible(&assignment),
                "admissible {:?}", assignment
            );
            // Rates inside the table only: the Eq. 1 comparisons decide.
            let in_table: Vec<(LinkId, Rate)> = assignment
                .iter()
                .copied()
                .filter(|&(_, r)| model.phy().rates().spec_for(r).is_some())
                .collect();
            prop_assert_eq!(model.admissible(&in_table), reference.admissible(&in_table));
            let active: Vec<LinkId> = assignment.iter().map(|&(l, _)| l).collect();
            for j in 0..l {
                let link = LinkId::from_index(j);
                prop_assert_eq!(
                    model.interference_at(link, &active).to_bits(),
                    reference.interference_at(link, &active).to_bits()
                );
                prop_assert_eq!(
                    bits(model.max_rate_in_set(link, &active)),
                    bits(reference.max_rate_in_set(link, &active))
                );
                let expect = bits(reference.victim_max_rate(link, &assignment));
                prop_assert_eq!(bits(model.victim_max_rate(link, &assignment)), expect);

                // The documented capture replay recipe, written out.
                let cap = model.additive_capture().expect("SINR model is additive");
                let mut interference = 0.0;
                for &(g, _) in &assignment {
                    if g != link {
                        interference +=
                            cap.power[cap.tx_slot[g.index()] * cap.receivers + cap.rx_slot[j]];
                    }
                }
                let pr = cap.signal[j];
                let sinr = pr / (interference + cap.noise);
                let replay = cap
                    .steps
                    .iter()
                    .find(|s| pr >= s.min_signal && sinr >= s.min_sinr)
                    .map(|s| s.rate);
                prop_assert_eq!(bits(replay), expect);
            }
        }
    }

    #[test]
    fn table_covers_only_linked_node_pairs(f in field()) {
        let model = build(&f);
        let t = model.topology();
        let cap = model.additive_capture().expect("SINR model is additive");
        let distinct = |pick: fn(&awb_net::Link) -> NodeId| {
            let mut nodes: Vec<NodeId> = t.links().map(pick).collect();
            nodes.sort();
            nodes.dedup();
            nodes.len()
        };
        let (tx, rx) = (distinct(awb_net::Link::tx), distinct(awb_net::Link::rx));
        prop_assert_eq!(cap.receivers, rx);
        prop_assert_eq!(cap.power.len(), tx * rx);
        prop_assert!(cap.power.len() <= t.num_links() * t.num_links());
        prop_assert!(cap.power.len() <= t.num_nodes() * t.num_nodes());
        for link in t.links() {
            let j = link.id().index();
            let d = t.distance(link.tx(), link.rx()).unwrap();
            prop_assert_eq!(cap.signal[j].to_bits(), model.phy().received_power(d).to_bits());
        }
    }
}

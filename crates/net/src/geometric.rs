//! The geometric (physical / SINR) interference model.

use crate::capture::AdditiveCapture;
use crate::ids::{LinkId, NodeId};
use crate::model::LinkRateModel;
use crate::topology::{Link, Topology};
use awb_phy::{Phy, Rate};

fn fingerprint_seed() -> u64 {
    0xcbf2_9ce4_8422_2325
}

fn fingerprint_mix(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for byte in value.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Interference model derived from node positions and an [`awb_phy::Phy`].
///
/// This is the model of the paper's evaluation (§5.2): a transmission at rate
/// `r_k` over link `L_j` succeeds within a concurrent set `E` iff the
/// received power meets the rate's sensitivity **and** the SINR of Eq. 3 —
/// with interference summed over every *other* transmitter in `E` — meets the
/// rate's threshold (Eq. 1).
///
/// Received power depends on a transmitting and a receiving node only, so
/// construction precomputes one flat table over the distinct transmitting ×
/// distinct receiving nodes (`T × R` entries, at most `min(L², N²)`), each
/// link's slots in it, each link's signal power and the decode ladder of
/// [`Phy::capture_thresholds`] — together the model's [`AdditiveCapture`].
/// Admissibility checks are then allocation-free inner loops with no
/// path-loss evaluation.
#[derive(Debug, Clone)]
pub struct SinrModel {
    topology: Topology,
    phy: Phy,
    /// Node-pair received powers, per-link slots and signals, noise and the
    /// decode ladder.
    capture: AdditiveCapture,
    /// Cached alone-rate lists per link, descending.
    alone: Vec<Vec<Rate>>,
}

/// Slot of each node within the distinct nodes that `endpoint` picks out of
/// the links, in order of first appearance: per link, its node's slot, and
/// the slotted nodes.
fn node_slots(
    topology: &Topology,
    endpoint: impl Fn(&Link) -> NodeId,
) -> (Vec<usize>, Vec<NodeId>) {
    let mut slot_of = vec![usize::MAX; topology.num_nodes()];
    let mut nodes = Vec::new();
    let slots = topology
        .links()
        .map(|link| {
            let node = endpoint(link);
            let slot = &mut slot_of[node.index()];
            if *slot == usize::MAX {
                *slot = nodes.len();
                nodes.push(node);
            }
            *slot
        })
        .collect();
    (slots, nodes)
}

impl SinrModel {
    /// Builds the model: O(T·R + L) — one received power per distinct
    /// (transmitting node, receiving node) pair, then per-link lookups.
    ///
    /// # Panics
    ///
    /// Never panics: all link endpoints are validated by the topology.
    pub fn new(topology: Topology, phy: Phy) -> SinrModel {
        let (tx_slot, transmitters) = node_slots(&topology, Link::tx);
        let (rx_slot, receivers) = node_slots(&topology, Link::rx);
        let mut power = Vec::with_capacity(transmitters.len() * receivers.len());
        for &t in &transmitters {
            for &r in &receivers {
                let d = topology
                    .distance(t, r)
                    .expect("link endpoints are validated by the topology");
                power.push(phy.received_power(d));
            }
        }
        let signal = tx_slot
            .iter()
            .zip(&rx_slot)
            .map(|(&t, &r)| power[t * receivers.len() + r])
            .collect();
        let capture = AdditiveCapture {
            receivers: receivers.len(),
            power,
            tx_slot,
            rx_slot,
            signal,
            noise: phy.noise(),
            steps: phy.capture_thresholds(),
        };
        let alone = (0..topology.num_links())
            .map(|j| match capture.max_rate(j, 0.0) {
                Some(max) => phy.rates().rates_up_to(max),
                None => Vec::new(),
            })
            .collect();
        SinrModel {
            topology,
            phy,
            capture,
            alone,
        }
    }

    /// The radio model.
    pub fn phy(&self) -> &Phy {
        &self.phy
    }

    /// The underlying topology.
    ///
    /// Inherent mirror of [`LinkRateModel::topology`] so callers holding a
    /// concrete model don't need the trait in scope.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Total interference power at the receiver of `link` when `active`
    /// (excluding `link` itself) transmit concurrently.
    pub fn interference_at(&self, link: LinkId, active: &[LinkId]) -> f64 {
        self.capture
            .interference(link.index(), active.iter().map(|a| a.index()))
    }

    /// The distance within which a *single* interfering transmitter denies
    /// `rate` to a link of length `link_length` — the radius of the Eq. 1/3
    /// SINR constraint for one aggressor. `None` when the rate is not
    /// achievable even without interference (sensitivity- or SNR-limited).
    ///
    /// Useful for reasoning about spatial reuse: with the paper's constants
    /// a 50 m link needs 54 Mbps interferers ~247 m away but 6 Mbps
    /// interferers only ~71 m away, which is exactly why rate-coupled
    /// cliques differ per rate.
    pub fn conflict_range(&self, link_length: f64, rate: Rate) -> Option<f64> {
        let spec = self.phy.rates().spec_for(rate)?;
        if link_length > spec.max_distance {
            return None; // sensitivity-limited
        }
        let pr = self.phy.received_power(link_length);
        // Need pr / (I + N) >= sinr  =>  I <= pr/sinr - N.
        let max_interference = pr / spec.sinr_linear() - self.phy.noise();
        if max_interference <= 0.0 {
            return None; // SNR-limited even without interference
        }
        Some(
            self.phy
                .pathloss()
                .range_for(self.phy.tx_power(), max_interference),
        )
    }

    /// The maximum supported rate of `link` when all links in `active`
    /// (which should include `link`) transmit concurrently; `None` when the
    /// link cannot sustain any rate — this is the `r_ij^*` of §2.3.
    pub fn max_rate_in_set(&self, link: LinkId, active: &[LinkId]) -> Option<Rate> {
        self.capture
            .max_rate(link.index(), self.interference_at(link, active))
    }
}

impl LinkRateModel for SinrModel {
    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn alone_rates(&self, link: LinkId) -> Vec<Rate> {
        self.alone.get(link.index()).cloned().unwrap_or_default()
    }

    fn admissible(&self, assignment: &[(LinkId, Rate)]) -> bool {
        let c = &self.capture;
        for &(link, rate) in assignment {
            if rate.is_zero() {
                return false;
            }
            let Some(step) = c.steps.iter().find(|s| s.rate == rate) else {
                return false;
            };
            let j = link.index();
            let pr = c.signal[j];
            let interference = c.interference(j, assignment.iter().map(|(other, _)| other.index()));
            let sinr = pr / (interference + c.noise);
            if pr < step.min_signal || sinr < step.min_sinr {
                return false;
            }
        }
        true
    }

    fn node_hears(&self, node: NodeId, link: LinkId) -> bool {
        let Ok(l) = self.topology.link(link) else {
            return false;
        };
        // A node participating in the transmission is trivially busy.
        if l.tx() == node || l.rx() == node {
            return true;
        }
        match self.topology.distance(l.tx(), node) {
            Ok(d) => self.phy.can_sense(d),
            Err(_) => false,
        }
    }

    fn rate_independent_interference(&self) -> bool {
        // Transmit power does not depend on the chosen rate, so neither does
        // the interference term of Eq. 3.
        true
    }

    fn victim_max_rate(&self, link: LinkId, others: &[(LinkId, Rate)]) -> Option<Rate> {
        // Exact joint computation: sum the interference of every other
        // transmitter (their chosen rates are irrelevant to this victim).
        let j = link.index();
        let interference = self
            .capture
            .interference(j, others.iter().map(|(l, _)| l.index()));
        self.capture.max_rate(j, interference)
    }

    fn link_fingerprint(&self, link: LinkId) -> u64 {
        // Everything a member link contributes to in-set admissibility is a
        // function of its endpoint positions (signal strength, injected and
        // suffered interference) given the model-wide radio, which
        // `model_fingerprint` covers.
        let Ok(l) = self.topology.link(link) else {
            return 0;
        };
        let tx = self
            .topology
            .node(l.tx())
            .expect("link endpoints are validated by the topology")
            .position();
        let rx = self
            .topology
            .node(l.rx())
            .expect("link endpoints are validated by the topology")
            .position();
        let mut h = fingerprint_seed();
        for v in [tx.x, tx.y, rx.x, rx.y] {
            h = fingerprint_mix(h, v.to_bits());
        }
        h
    }

    fn model_fingerprint(&self) -> u64 {
        let mut h = fingerprint_seed();
        for v in [
            self.phy.tx_power(),
            self.phy.noise(),
            self.phy.pathloss().exponent(),
            self.phy.carrier_sense_range(),
        ] {
            h = fingerprint_mix(h, v.to_bits());
        }
        for spec in self.phy.rates().iter() {
            h = fingerprint_mix(h, spec.rate.as_mbps().to_bits());
            h = fingerprint_mix(h, spec.sinr_linear().to_bits());
            h = fingerprint_mix(h, spec.max_distance.to_bits());
        }
        h
    }

    fn additive_capture(&self) -> Option<&AdditiveCapture> {
        Some(&self.capture)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinkRateModel;

    /// Two parallel 50 m links, separated by `gap` metres.
    fn parallel_pair(gap: f64) -> (SinrModel, LinkId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(50.0, 0.0);
        let c = t.add_node(0.0, gap);
        let d = t.add_node(50.0, gap);
        let l1 = t.add_link(a, b).unwrap();
        let l2 = t.add_link(c, d).unwrap();
        (SinrModel::new(t, Phy::paper_default()), l1, l2)
    }

    #[test]
    fn far_apart_links_are_concurrent_at_top_rate() {
        let (m, l1, l2) = parallel_pair(10_000.0);
        let top = Rate::from_mbps(54.0);
        assert!(m.admissible(&[(l1, top), (l2, top)]));
        assert_eq!(m.max_rate_in_set(l1, &[l1, l2]), Some(top));
    }

    #[test]
    fn close_links_conflict_at_high_rate() {
        let (m, l1, l2) = parallel_pair(60.0);
        let top = Rate::from_mbps(54.0);
        // Interferer at ~60-78 m from the receiver: SINR is far below 24.56 dB.
        assert!(!m.admissible(&[(l1, top), (l2, top)]));
        // Each link alone is fine.
        assert!(m.admissible(&[(l1, top)]));
        assert!(m.admissible(&[(l2, top)]));
    }

    #[test]
    fn intermediate_gap_allows_low_rate_only() {
        // Find a separation where the pair sustains 6 Mbps but not 54.
        // With the paper's constants the 54 Mbps SINR constraint needs the
        // interferer ~247 m away while 6 Mbps only needs ~71 m, so gaps in
        // between exhibit the coupling.
        for gap in [100.0, 150.0, 200.0] {
            let (m, l1, l2) = parallel_pair(gap);
            let low = Rate::from_mbps(6.0);
            let top = Rate::from_mbps(54.0);
            if m.admissible(&[(l1, low), (l2, low)]) && !m.admissible(&[(l1, top), (l2, top)]) {
                // Rate coupling in action: same geometry, different rates.
                return;
            }
        }
        panic!("no gap exhibited rate-dependent admissibility");
    }

    #[test]
    fn alone_rates_follow_distance() {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(100.0, 0.0); // 18 Mbps range
        let c = t.add_node(500.0, 0.0); // out of range from b
        let ab = t.add_link(a, b).unwrap();
        let bc = t.add_link(b, c).unwrap();
        let m = SinrModel::new(t, Phy::paper_default());
        let rates: Vec<f64> = m.alone_rates(ab).iter().map(|r| r.as_mbps()).collect();
        assert_eq!(rates, vec![18.0, 6.0]);
        assert!(m.alone_rates(bc).is_empty());
        assert_eq!(m.max_alone_rate(bc), None);
    }

    #[test]
    fn admissible_rejects_unachievable_rates() {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(150.0, 0.0); // only 6 Mbps alone
        let ab = t.add_link(a, b).unwrap();
        let m = SinrModel::new(t, Phy::paper_default());
        assert!(m.admissible(&[(ab, Rate::from_mbps(6.0))]));
        assert!(!m.admissible(&[(ab, Rate::from_mbps(54.0))]));
        assert!(!m.admissible(&[(ab, Rate::ZERO)]));
        assert!(!m.admissible(&[(ab, Rate::from_mbps(11.0))])); // not in table
    }

    #[test]
    fn interference_is_additive_across_transmitters() {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(50.0, 0.0);
        let c = t.add_node(0.0, 300.0);
        let d = t.add_node(50.0, 300.0);
        let e = t.add_node(0.0, -300.0);
        let f = t.add_node(50.0, -300.0);
        let ab = t.add_link(a, b).unwrap();
        let cd = t.add_link(c, d).unwrap();
        let ef = t.add_link(e, f).unwrap();
        let m = SinrModel::new(t, Phy::paper_default());
        let one = m.interference_at(ab, &[ab, cd]);
        let two = m.interference_at(ab, &[ab, cd, ef]);
        assert!(two > one);
        assert!((two - 2.0 * one).abs() < one * 0.1); // symmetric placement
    }

    #[test]
    fn hearing_includes_participants_and_sensing_range() {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(50.0, 0.0);
        let near = t.add_node(100.0, 0.0); // 100 m from tx: within 158 m CS range
        let far = t.add_node(1000.0, 0.0);
        let ab = t.add_link(a, b).unwrap();
        let m = SinrModel::new(t, Phy::paper_default());
        assert!(m.node_hears(a, ab));
        assert!(m.node_hears(b, ab));
        assert!(m.node_hears(near, ab));
        assert!(!m.node_hears(far, ab));
    }

    #[test]
    fn conflict_range_matches_admissibility_boundary() {
        let phy = Phy::paper_default();
        // Build a probe topology lazily per distance.
        let link_length = 50.0;
        let rate = Rate::from_mbps(54.0);
        let model_at = |gap: f64| {
            let mut t = Topology::new();
            let a = t.add_node(0.0, 0.0);
            let b = t.add_node(link_length, 0.0);
            // Interferer transmitter exactly `gap` from the victim receiver.
            let c = t.add_node(link_length + gap, 0.0);
            let d = t.add_node(link_length + gap + 10.0, 0.0);
            let l1 = t.add_link(a, b).unwrap();
            let l2 = t.add_link(c, d).unwrap();
            (SinrModel::new(t, phy.clone()), l1, l2)
        };
        let (probe, _, _) = model_at(100.0);
        let range = probe.conflict_range(link_length, rate).unwrap();
        assert!((150.0..400.0).contains(&range), "range {range}");
        // Just inside the range the pair is inadmissible at 54; just
        // outside it is admissible.
        let low = Rate::from_mbps(6.0);
        let (m, l1, l2) = model_at(range - 1.0);
        assert!(!m.admissible(&[(l1, rate), (l2, low)]));
        let (m, l1, l2) = model_at(range + 1.0);
        assert!(m.admissible(&[(l1, rate), (l2, low)]));
        // Rates out of reach return None.
        assert!(probe.conflict_range(100.0, rate).is_none()); // > 59 m
        assert!(probe.conflict_range(50.0, Rate::from_mbps(11.0)).is_none());
    }

    #[test]
    fn fingerprints_track_geometry_and_radio() {
        let (m, l1, l2) = parallel_pair(300.0);
        // Distinct links fingerprint differently; a clone is identical.
        assert_ne!(m.link_fingerprint(l1), m.link_fingerprint(l2));
        let again = m.clone();
        assert_eq!(m.link_fingerprint(l1), again.link_fingerprint(l1));
        assert_eq!(m.model_fingerprint(), again.model_fingerprint());
        // Moving one endpoint changes only that link's fingerprint.
        let (moved, m1, m2) = parallel_pair(310.0);
        assert_eq!(m.link_fingerprint(l1), moved.link_fingerprint(m1));
        assert_ne!(m.link_fingerprint(l2), moved.link_fingerprint(m2));
        // A different radio changes the model fingerprint.
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(50.0, 0.0);
        t.add_link(a, b).unwrap();
        let quiet = SinrModel::new(t, Phy::paper_default().with_noise(1e-15));
        assert_ne!(m.model_fingerprint(), quiet.model_fingerprint());
        // The blanket `&M` impl forwards rather than defaulting to 0.
        let by_ref: &SinrModel = &m;
        assert_eq!(by_ref.link_fingerprint(l1), m.link_fingerprint(l1));
        assert_eq!(by_ref.model_fingerprint(), m.model_fingerprint());
        assert_ne!(m.model_fingerprint(), 0);
    }

    #[test]
    fn power_table_holds_linked_node_pairs_only() {
        // 1,000 nodes, one link: one (transmitter, receiver) pair, not N².
        let mut t = Topology::new();
        for i in 0..1_000 {
            t.add_node(f64::from(i), 0.0);
        }
        let ab = t
            .add_link(NodeId::from_index(0), NodeId::from_index(40))
            .unwrap();
        let m = SinrModel::new(t, Phy::paper_default());
        assert_eq!(m.capture.power.len(), 1);
        assert_eq!(m.capture.receivers, 1);
        assert_eq!(m.alone_rates(ab).len(), 4);
        // A relay chain a→b→c plus a→c: transmitters {a, b}, receivers
        // {b, c}, so 4 entries where the link-pair table had 9.
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(40.0, 0.0);
        let c = t.add_node(80.0, 0.0);
        t.add_link(a, b).unwrap();
        t.add_link(b, c).unwrap();
        t.add_link(a, c).unwrap();
        let m = SinrModel::new(t, Phy::paper_default());
        assert_eq!(m.capture.power.len(), 4);
        assert_eq!(m.capture.tx_slot, vec![0, 1, 0]);
        assert_eq!(m.capture.rx_slot, vec![0, 1, 1]);
    }

    #[test]
    fn max_rate_in_set_matches_admissibility() {
        // In the SINR model interference is independent of chosen rates, so
        // the joint (max, max) vector must be admissible, and raising either
        // link above its set-max must not be.
        for gap in [150.0, 200.0, 400.0, 1000.0] {
            let (m, l1, l2) = parallel_pair(gap);
            let set = [l1, l2];
            let (Some(r1), Some(r2)) = (m.max_rate_in_set(l1, &set), m.max_rate_in_set(l2, &set))
            else {
                continue;
            };
            assert!(
                m.admissible(&[(l1, r1), (l2, r2)]),
                "joint max-rate vector must be admissible at gap {gap}"
            );
            let higher = m.phy().rates().iter().map(|s| s.rate).find(|&x| x > r1);
            if let Some(higher) = higher {
                assert!(
                    !m.admissible(&[(l1, higher), (l2, r2)]),
                    "raising l1 above its set max must fail at gap {gap}"
                );
            }
        }
    }
}

use awb_net::{LinkId, LinkRateModel};
use awb_sets::RatedSet;
use std::fmt;

/// A link scheduling `S = {(E_i, R_i*, λ_i)}` (paper §2.3): rate-coupled
/// concurrent-transmission sets, each active for a time share `λ_i` of the
/// scheduling period.
///
/// Produced by the Eq. 6 LP as the witness of the computed available
/// bandwidth; can also be constructed by hand for tests and what-if
/// analyses.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    entries: Vec<(RatedSet, f64)>,
}

impl Schedule {
    /// Creates a schedule from `(set, time share)` entries.
    ///
    /// # Panics
    ///
    /// Panics if a share is negative/non-finite or the shares sum to more
    /// than `1 + 1e-9`.
    pub fn new(entries: Vec<(RatedSet, f64)>) -> Schedule {
        for (_, share) in &entries {
            assert!(
                share.is_finite() && *share >= 0.0,
                "time shares must be finite and non-negative, got {share}"
            );
        }
        let total: f64 = entries.iter().map(|(_, s)| s).sum();
        assert!(total <= 1.0 + 1e-9, "time shares sum to {total} > 1");
        Schedule { entries }
    }

    /// An empty schedule (all links idle).
    pub fn empty() -> Schedule {
        Schedule::default()
    }

    /// The `(set, share)` entries.
    pub fn entries(&self) -> &[(RatedSet, f64)] {
        &self.entries
    }

    /// Total scheduled time share `Σ λ_i`.
    pub fn total_share(&self) -> f64 {
        self.entries.iter().map(|(_, s)| s).sum()
    }

    /// Idle (unscheduled) fraction of the period.
    pub fn idle_share(&self) -> f64 {
        (1.0 - self.total_share()).max(0.0)
    }

    /// Throughput delivered to `link` by this schedule, in Mbps:
    /// `Σ_i λ_i · r_i(link)` (Eq. 2's right-hand side).
    pub fn link_throughput(&self, link: LinkId) -> f64 {
        self.entries
            .iter()
            .filter_map(|(set, share)| set.rate_of(link).map(|r| r.as_mbps() * share))
            .sum()
    }

    /// The full throughput vector over `universe`.
    pub fn throughput_vector(&self, universe: &[LinkId]) -> Vec<f64> {
        universe.iter().map(|&l| self.link_throughput(l)).collect()
    }

    /// Checks that every scheduled set is admissible under `model`.
    pub fn is_valid<M: LinkRateModel>(&self, model: &M) -> bool {
        self.entries
            .iter()
            .all(|(set, _)| set.is_empty() || model.admissible(set.couples()))
    }

    /// The fraction of time during which `node` senses the channel busy
    /// under this schedule, assuming non-overlapping slots: the sum of the
    /// shares of every entry containing a link the node hears.
    ///
    /// This is the quantity a carrier-sensing node would measure against an
    /// *optimal* schedule, and the input to the paper's idle-ratio
    /// estimators (§4).
    pub fn busy_share_at<M: LinkRateModel>(&self, model: &M, node: awb_net::NodeId) -> f64 {
        let busy: f64 = self
            .entries
            .iter()
            .filter(|(set, _)| set.links().any(|l| model.node_hears(node, l)))
            .map(|(_, s)| s)
            .sum();
        busy.min(1.0)
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return write!(f, "(idle)");
        }
        for (i, (set, share)) in self.entries.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "λ={share:.4} {set}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awb_net::{DeclarativeModel, Topology};
    use awb_phy::Rate;

    fn r(m: f64) -> Rate {
        Rate::from_mbps(m)
    }

    fn two_link_model() -> (DeclarativeModel, LinkId, LinkId) {
        let mut t = Topology::new();
        let n: Vec<_> = (0..4).map(|i| t.add_node(f64::from(i), 0.0)).collect();
        let l1 = t.add_link(n[0], n[1]).unwrap();
        let l2 = t.add_link(n[2], n[3]).unwrap();
        let m = DeclarativeModel::builder(t)
            .alone_rates(l1, &[r(54.0)])
            .alone_rates(l2, &[r(54.0)])
            .conflict_all(l1, l2)
            .build();
        (m, l1, l2)
    }

    #[test]
    fn throughput_accumulates_over_entries() {
        let (_, l1, l2) = two_link_model();
        let s = Schedule::new(vec![
            (vec![(l1, r(54.0))].into_iter().collect(), 0.25),
            (vec![(l2, r(54.0))].into_iter().collect(), 0.5),
            (vec![(l1, r(36.0))].into_iter().collect(), 0.25),
        ]);
        assert!((s.link_throughput(l1) - (0.25 * 54.0 + 0.25 * 36.0)).abs() < 1e-12);
        assert!((s.link_throughput(l2) - 27.0).abs() < 1e-12);
        assert_eq!(s.throughput_vector(&[l1, l2]).len(), 2);
        assert!((s.total_share() - 1.0).abs() < 1e-12);
        assert_eq!(s.idle_share(), 0.0);
    }

    #[test]
    fn validity_detects_conflicting_sets() {
        let (m, l1, l2) = two_link_model();
        let ok = Schedule::new(vec![(vec![(l1, r(54.0))].into_iter().collect(), 0.5)]);
        assert!(ok.is_valid(&m));
        let bad = Schedule::new(vec![(
            vec![(l1, r(54.0)), (l2, r(54.0))].into_iter().collect(),
            0.5,
        )]);
        assert!(!bad.is_valid(&m));
    }

    #[test]
    #[should_panic(expected = "> 1")]
    fn over_committed_schedule_panics() {
        let (_, l1, l2) = two_link_model();
        let _ = Schedule::new(vec![
            (vec![(l1, r(54.0))].into_iter().collect(), 0.7),
            (vec![(l2, r(54.0))].into_iter().collect(), 0.7),
        ]);
    }

    #[test]
    fn busy_share_counts_heard_entries() {
        let (m, l1, l2) = two_link_model();
        let tx1 = m.topology().link(l1).unwrap().tx();
        let s = Schedule::new(vec![
            (vec![(l1, r(54.0))].into_iter().collect(), 0.3),
            (vec![(l2, r(54.0))].into_iter().collect(), 0.4),
        ]);
        // tx1 participates in l1 and (declaratively) does not hear l2.
        assert!((s.busy_share_at(&m, tx1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule_is_idle() {
        let s = Schedule::empty();
        assert_eq!(s.total_share(), 0.0);
        assert_eq!(s.idle_share(), 1.0);
        assert_eq!(s.to_string(), "(idle)");
    }
}

//! Precompiled additive-interference capture tables.
//!
//! A MAC simulator asks one question per granted transmission: *which rate
//! can this victim still decode while the rest of the granted set
//! transmits?* For additive-interference models
//! ([`SinrModel`](crate::SinrModel)) the answer is a power sum plus a walk
//! down the decode ladder; this module packages the constants of that
//! computation — node-pair received powers, each link's two slots in them,
//! per-link signal powers, the noise floor and the tolerance-scaled
//! thresholds — so a compiled slot kernel can replay
//! [`LinkRateModel::victim_max_rate`] bit-for-bit without touching the model
//! in its inner loop. The [`SinrModel`](crate::SinrModel) answers its own
//! questions from the same tables.

use awb_phy::{CaptureThreshold, Rate};

/// The capture constants of an additive-interference model over its full
/// link universe (link ids are dense indices into the per-link vectors).
///
/// Received power depends on two nodes only, so the power table is indexed
/// by node pairs, not link pairs: a row per distinct transmitting node and a
/// column per distinct receiving node (`T × R` entries, never more than
/// `L²` or `N²`). Link `j` owns row `tx_slot[j]` and column `rx_slot[j]`.
///
/// Replaying the victim test for link `v` against a granted set `G`
/// (visited in grant order, skipping `v` itself):
///
/// ```text
/// interference = Σ_{g ∈ G, g ≠ v} power[tx_slot[g] * receivers + rx_slot[v]]   // grant order!
/// sinr = signal[v] / (interference + noise)
/// max  = first step with signal[v] >= min_signal && sinr >= min_sinr
/// ```
///
/// The summation order and the precomputed tolerance-scaled thresholds make
/// this bit-identical to the model's own
/// [`victim_max_rate`](crate::LinkRateModel::victim_max_rate), whose
/// interference sum also walks the concurrent set in its given order
/// ([`AdditiveCapture::interference`] and [`AdditiveCapture::max_rate`]
/// are that recipe).
#[derive(Debug, Clone, PartialEq)]
pub struct AdditiveCapture {
    /// Number of distinct receiving nodes: the row stride of `power`.
    pub receivers: usize,
    /// Row-major node-pair received powers: `power[t * receivers + r]` is
    /// the power transmitting node `t` lands on receiving node `r` (both
    /// slots, in order of first appearance in link order).
    pub power: Vec<f64>,
    /// Per link, the row of its transmitter in `power`.
    pub tx_slot: Vec<usize>,
    /// Per link, the column of its receiver in `power`.
    pub rx_slot: Vec<usize>,
    /// Per-link received signal power (its own node pair's entry).
    pub signal: Vec<f64>,
    /// Noise floor (linear units).
    pub noise: f64,
    /// The decode ladder, rates descending, shared by every link
    /// (tolerance-scaled; see [`awb_phy::Phy::capture_thresholds`]).
    pub steps: Vec<CaptureThreshold>,
}

impl AdditiveCapture {
    /// Interference power at the receiver of link `victim` from the
    /// transmitters of `aggressors` (skipping `victim` itself), summed in
    /// the order given.
    pub fn interference(&self, victim: usize, aggressors: impl Iterator<Item = usize>) -> f64 {
        let column = self.rx_slot[victim];
        aggressors
            .filter(|&a| a != victim)
            .map(|a| self.power[self.tx_slot[a] * self.receivers + column])
            .sum()
    }

    /// The highest rate link `victim` decodes under `interference` — the
    /// first ladder step its signal and SINR both meet (Eq. 1 with the SINR
    /// of Eq. 3); `None` when no rate decodes.
    pub fn max_rate(&self, victim: usize, interference: f64) -> Option<Rate> {
        let pr = self.signal[victim];
        let sinr = pr / (interference + self.noise);
        self.steps
            .iter()
            .find(|s| pr >= s.min_signal && sinr >= s.min_sinr)
            .map(|s| s.rate)
    }
}

#[cfg(test)]
mod tests {
    use crate::{LinkRateModel, SinrModel, Topology};
    use awb_phy::Phy;

    #[test]
    fn sinr_model_tables_replay_victim_max_rate() {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(50.0, 0.0);
        let c = t.add_node(0.0, 200.0);
        let d = t.add_node(50.0, 200.0);
        let l1 = t.add_link(a, b).unwrap();
        let l2 = t.add_link(c, d).unwrap();
        let m = SinrModel::new(t, Phy::paper_default());
        let cap = m.additive_capture().expect("SINR model is additive");
        assert_eq!(cap.signal.len(), 2);
        let r2 = m.max_alone_rate(l2).unwrap();
        let expect = m.victim_max_rate(l1, &[(l1, r2), (l2, r2)]);
        // Replay by the documented recipe.
        let v = l1.index();
        let interference = cap.power[cap.tx_slot[l2.index()] * cap.receivers + cap.rx_slot[v]];
        let pr = cap.signal[v];
        let sinr = pr / (interference + cap.noise);
        let replay = cap
            .steps
            .iter()
            .find(|s| pr >= s.min_signal && sinr >= s.min_sinr)
            .map(|s| s.rate);
        assert_eq!(replay, expect);
    }
}

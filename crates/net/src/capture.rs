//! Precompiled additive-interference capture tables.
//!
//! A MAC simulator asks one question per granted transmission: *which rate
//! can this victim still decode while the rest of the granted set
//! transmits?* For additive-interference models
//! ([`SinrModel`](crate::SinrModel)) the answer is a power sum plus a walk
//! down the decode ladder; this module packages the constants of that
//! computation — per-pair received powers, per-link signal powers, the
//! noise floor and the tolerance-scaled thresholds — so a compiled slot
//! kernel can replay [`LinkRateModel::victim_max_rate`] bit-for-bit without
//! touching the model in its inner loop.

use awb_phy::CaptureThreshold;

/// The flattened capture constants of an additive-interference model over
/// its full link universe (link ids are dense indices `0..num_links`).
///
/// Replaying the victim test for link `v` against a granted set `G`
/// (visited in grant order, skipping `v` itself):
///
/// ```text
/// interference = Σ_{g ∈ G, g ≠ v} power[g * num_links + v]   // grant order!
/// sinr = signal[v] / (interference + noise)
/// max  = first step with signal[v] >= min_signal && sinr >= min_sinr
/// ```
///
/// The summation order and the precomputed tolerance-scaled thresholds make
/// this bit-identical to the model's own
/// [`victim_max_rate`](crate::LinkRateModel::victim_max_rate), whose
/// interference sum also walks the concurrent set in its given order.
#[derive(Debug, Clone, PartialEq)]
pub struct AdditiveCapture {
    /// Number of links the tables cover.
    pub num_links: usize,
    /// Row-major received powers: `power[t * num_links + r]` is the power
    /// the transmitter of link `t` lands on the receiver of link `r`.
    pub power: Vec<f64>,
    /// Per-link received signal power (`power[j * num_links + j]`).
    pub signal: Vec<f64>,
    /// Noise floor (linear units).
    pub noise: f64,
    /// The decode ladder, rates descending, shared by every link
    /// (tolerance-scaled; see [`awb_phy::Phy::capture_thresholds`]).
    pub steps: Vec<CaptureThreshold>,
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
        assert_eq!(cap.num_links, 2);
        let r2 = m.max_alone_rate(l2).unwrap();
        let expect = m.victim_max_rate(l1, &[(l1, r2), (l2, r2)]);
        // Replay by the documented recipe.
        let v = l1.index();
        let interference = cap.power[l2.index() * cap.num_links + v];
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

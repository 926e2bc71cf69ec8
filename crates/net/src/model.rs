//! The interface between a topology and the rate-coupled combinatorics.

use crate::capture::AdditiveCapture;
use crate::ids::{LinkId, NodeId};
use crate::snapshot::ConflictSnapshot;
use crate::topology::Topology;
use awb_phy::Rate;

/// Answers the admissibility questions from which rate-coupled independent
/// sets and cliques (paper §2.4, §3.1) are built.
///
/// Implementations: [`SinrModel`](crate::SinrModel) (geometric, Eq. 1/Eq. 3)
/// and [`DeclarativeModel`](crate::DeclarativeModel) (hand-stated conflicts,
/// Scenario I/II).
///
/// The model owns its topology so that a single value can be passed through
/// enumeration, scheduling and routing layers.
///
/// Implementations are expected to be **downward closed** (removing a couple
/// from an admissible assignment keeps it admissible) and **rate-monotone**
/// (lowering a couple's rate keeps it admissible). Both bundled models have
/// these properties; set enumeration and dominance pruning rely on them.
///
/// `Sync` is a supertrait so that solvers may price conflict components in
/// parallel by sharing `&M` across threads; models are plain owned data, so
/// every reasonable implementation already satisfies it.
pub trait LinkRateModel: Sync {
    /// The underlying topology.
    fn topology(&self) -> &Topology;

    /// The rates `link` can use when transmitting **alone**, in descending
    /// order. Empty means the link cannot transmit at all (e.g. the nodes are
    /// out of range).
    fn alone_rates(&self, link: LinkId) -> Vec<Rate>;

    /// Whether every `(link, rate)` couple in `assignment` succeeds when all
    /// of them transmit concurrently.
    ///
    /// `assignment` contains each link at most once, with a non-zero rate
    /// drawn from that link's [`alone_rates`](Self::alone_rates).
    /// Implementations may return `false` (rather than panic) for rates that
    /// are not achievable even alone.
    fn admissible(&self, assignment: &[(LinkId, Rate)]) -> bool;

    /// Whether `node` senses the channel busy while `link` transmits — the
    /// carrier-sensing relation used for channel-idle-ratio estimation
    /// (paper §4).
    fn node_hears(&self, node: NodeId, link: LinkId) -> bool;

    /// The maximum rate `link` supports alone, if any.
    fn max_alone_rate(&self, link: LinkId) -> Option<Rate> {
        self.alone_rates(link).first().copied()
    }

    /// Whether two `(link, rate)` couples conflict, i.e. cannot both succeed
    /// concurrently (the paper's "interferes with" relation on couples,
    /// §3.1).
    fn conflicts(&self, a: (LinkId, Rate), b: (LinkId, Rate)) -> bool {
        !self.admissible(&[a, b])
    }

    /// Whether the interference suffered by a link depends only on *which*
    /// other links transmit, not on the rates they use.
    ///
    /// True for the physical model (transmit power is rate-independent, so
    /// Eq. 3's SINR is too); false in general for declarative models, where
    /// conflicts may be stated per rate pair. Enumeration uses this to skip
    /// rate branching.
    fn rate_independent_interference(&self) -> bool {
        false
    }

    /// Whether joint admissibility is *equivalent* to checking every couple
    /// pair with [`conflicts`](Self::conflicts) (given that each rate is
    /// drawn from the link's [`alone_rates`](Self::alone_rates)).
    ///
    /// True for declarative models, whose conflicts are stated per pair;
    /// false for additive-interference models, where three transmitters can
    /// jointly deny a rate that every pair allows. Compiled enumeration
    /// engines use this to decide whether a pairwise conflict bitmask is the
    /// whole admissibility test or merely a sound pre-filter.
    fn pairwise_admissibility_exact(&self) -> bool {
        false
    }

    /// Bulk snapshot of the per-link rates and pairwise couple conflicts of
    /// `universe` — the one-time compilation input for fast enumeration
    /// engines (see [`ConflictSnapshot`]).
    fn conflict_snapshot(&self, universe: &[LinkId]) -> ConflictSnapshot {
        ConflictSnapshot::build(self, universe)
    }

    /// The maximum rate `link` itself can sustain while every couple in
    /// `others` transmits concurrently — regardless of whether those other
    /// transmissions succeed (the per-victim "capture" question a MAC
    /// simulator asks).
    ///
    /// The default tests the link's rates descending against each other
    /// couple pairwise, which is exact for declarative models; models with
    /// additive interference (the physical model) override this with the
    /// exact joint computation.
    fn victim_max_rate(&self, link: LinkId, others: &[(LinkId, Rate)]) -> Option<Rate> {
        self.alone_rates(link).into_iter().find(|&r| {
            others
                .iter()
                .filter(|(l, _)| *l != link)
                .all(|&o| !self.conflicts((link, r), o))
        })
    }

    /// The precompiled additive-interference capture tables of this model,
    /// if it is additive: node-pair received powers with each link's slots
    /// in them, signals, noise and the tolerance-scaled decode ladder, from
    /// which [`victim_max_rate`](Self::victim_max_rate) can be replayed
    /// bit-for-bit (see [`AdditiveCapture`]). Borrowed from the model, so a
    /// caller pays no copy.
    ///
    /// `None` (the default) means the model carries no additive tables;
    /// compiled MAC kernels then fall back to pairwise conflict masks (when
    /// [`pairwise_admissibility_exact`](Self::pairwise_admissibility_exact))
    /// or to calling the model directly.
    fn additive_capture(&self) -> Option<&AdditiveCapture> {
        None
    }

    /// A fingerprint of everything about `link` — beyond its
    /// [`alone_rates`](Self::alone_rates) — that the model's admissibility
    /// answers over sets *containing* `link` depend on.
    ///
    /// Content-addressed compiled-unit caches (see `awb-core`'s
    /// `UnitCache`) mix this into a component's content hash, so two
    /// compiled snapshots may share a unit only when every member link
    /// fingerprints identically. For geometric models this must cover the
    /// link's endpoint positions: moving a transmitter changes the
    /// interference it injects into co-members even when its own alone
    /// rates are unchanged.
    ///
    /// The default of `0` is correct for models whose admissibility is a
    /// pure function of alone rates and pairwise conflicts
    /// ([`pairwise_admissibility_exact`](Self::pairwise_admissibility_exact)
    /// — the pairwise table is hashed separately). Models with additive
    /// interference **must** override this (and
    /// [`model_fingerprint`](Self::model_fingerprint)); the bundled
    /// [`SinrModel`](crate::SinrModel) does.
    fn link_fingerprint(&self, link: LinkId) -> u64 {
        let _ = link;
        0
    }

    /// A fingerprint of the model-wide parameters every admissibility
    /// answer depends on (for geometric models: the radio — transmit power,
    /// noise floor, path-loss exponent, per-rate sensitivities and SINR
    /// thresholds). Complements [`link_fingerprint`](Self::link_fingerprint)
    /// in compiled-unit content hashes; the default of `0` is correct for
    /// pairwise-exact models.
    fn model_fingerprint(&self) -> u64 {
        0
    }
}

// Blanket impl so `&M` works wherever `M` does (routing and estimation take
// models by reference).
impl<M: LinkRateModel + ?Sized> LinkRateModel for &M {
    fn topology(&self) -> &Topology {
        (**self).topology()
    }
    fn alone_rates(&self, link: LinkId) -> Vec<Rate> {
        (**self).alone_rates(link)
    }
    fn admissible(&self, assignment: &[(LinkId, Rate)]) -> bool {
        (**self).admissible(assignment)
    }
    fn node_hears(&self, node: NodeId, link: LinkId) -> bool {
        (**self).node_hears(node, link)
    }
    fn max_alone_rate(&self, link: LinkId) -> Option<Rate> {
        (**self).max_alone_rate(link)
    }
    fn conflicts(&self, a: (LinkId, Rate), b: (LinkId, Rate)) -> bool {
        (**self).conflicts(a, b)
    }
    fn rate_independent_interference(&self) -> bool {
        (**self).rate_independent_interference()
    }
    fn pairwise_admissibility_exact(&self) -> bool {
        (**self).pairwise_admissibility_exact()
    }
    fn conflict_snapshot(&self, universe: &[LinkId]) -> ConflictSnapshot {
        (**self).conflict_snapshot(universe)
    }
    fn victim_max_rate(&self, link: LinkId, others: &[(LinkId, Rate)]) -> Option<Rate> {
        (**self).victim_max_rate(link, others)
    }
    fn additive_capture(&self) -> Option<&AdditiveCapture> {
        (**self).additive_capture()
    }
    // The fingerprints MUST forward: falling back to the defaulted `0` for
    // `&M` would silently break content-addressed unit reuse for callers
    // that pass models by reference (the service passes `&dyn` models).
    fn link_fingerprint(&self, link: LinkId) -> u64 {
        (**self).link_fingerprint(link)
    }
    fn model_fingerprint(&self) -> u64 {
        (**self).model_fingerprint()
    }
}

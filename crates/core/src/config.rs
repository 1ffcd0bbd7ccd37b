//! Engine configuration.

/// Which serializability guarantee grounding provides (§2, §3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Serializability {
    /// Classical ACID-style: grounding transaction `Ti` first grounds
    /// `T0..Ti-1` in arrival order (the "naïve approach" of §3.2.3 — safe
    /// but over-constraining).
    Strict,
    /// Semantic serializability (the default, and the paper's
    /// recommendation): the transaction under consideration is moved to
    /// the *front* of the pending order if the remaining formula stays
    /// satisfiable; its intent is preserved even though it is no longer
    /// serialized in commit order. Falls back to `Strict` when the
    /// front-move check fails.
    #[default]
    Semantic,
}

/// How the engine picks among multiple satisfying assignments when a value
/// must be fixed (§3.2.2: "it is desirable to fix values in such a way as
/// to maximize the remaining number of possible worlds; more sophisticated
/// application-specific heuristics may also be appropriate").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroundingPolicy {
    /// Take the first satisfying assignment found (deterministic,
    /// cheapest; what the paper's prototype does).
    #[default]
    FirstFit,
    /// Enumerate up to `sample` assignments and keep the one that leaves
    /// the most candidate tuples for the remaining pending transactions —
    /// a generic proxy for "maximize the remaining possible worlds".
    MaxFlexibility {
        /// How many alternative assignments to score.
        sample: usize,
    },
    /// Pick uniformly at random among up to `sample` assignments
    /// (seeded; used to de-bias measurements in ablations).
    Random {
        /// RNG seed.
        seed: u64,
        /// How many alternative assignments to draw from.
        sample: usize,
    },
}

impl GroundingPolicy {
    /// How many alternative assignments a grounding enumerates before it
    /// fixes one (`0` for first-fit).
    pub(crate) fn sample(&self) -> usize {
        match *self {
            GroundingPolicy::FirstFit => 0,
            GroundingPolicy::MaxFlexibility { sample } | GroundingPolicy::Random { sample, .. } => {
                sample
            }
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct QuantumDbConfig {
    /// Maximum pending transactions per partition before the oldest are
    /// forcibly grounded (§4; the prototype's bound came from MySQL's
    /// 61-join limit). The figures sweep k ∈ {20, 30, 40}.
    pub k: usize,
    /// Grounding order guarantee.
    pub serializability: Serializability,
    /// Assignment-choice heuristic.
    pub policy: GroundingPolicy,
    /// Ground coordination partners jointly as soon as both are in the
    /// system (§5.1 entangled resource transactions).
    pub ground_on_partner_arrival: bool,
    /// Engine determinism seed, threaded through every remaining choice
    /// point the engine has beyond data order: solver atom-ordering
    /// tie-breaks ([`qdb_solver::Solver::seed`]), possible-world
    /// enumeration, and the [`GroundingPolicy::Random`] shuffle. `0` (the
    /// default) reproduces the historical first-wins behavior bit for
    /// bit; any fixed value makes two runs of the same workload identical
    /// — the contract the deterministic simulator (`qdb-sim`) relies on.
    pub seed: u64,
}

impl Default for QuantumDbConfig {
    fn default() -> Self {
        QuantumDbConfig {
            k: 61,
            serializability: Serializability::default(),
            policy: GroundingPolicy::default(),
            ground_on_partner_arrival: true,
            seed: 0,
        }
    }
}

impl QuantumDbConfig {
    /// Config with a specific `k` (the common knob in the experiments).
    pub fn with_k(k: usize) -> Self {
        QuantumDbConfig {
            k,
            ..QuantumDbConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_prototype() {
        let c = QuantumDbConfig::default();
        assert_eq!(c.k, 61); // MySQL's max joins, §4
        assert_eq!(c.serializability, Serializability::Semantic);
        assert_eq!(c.policy, GroundingPolicy::FirstFit);
        assert!(c.ground_on_partner_arrival);
        assert_eq!(c.seed, 0, "seed 0 = historical deterministic behavior");
    }

    #[test]
    fn with_k_overrides_only_k() {
        let c = QuantumDbConfig::with_k(20);
        assert_eq!(c.k, 20);
        assert!(c.ground_on_partner_arrival);
    }
}

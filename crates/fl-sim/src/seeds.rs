//! Deterministic seed derivation.
//!
//! Every stochastic component of the simulation (population, dataset,
//! partition, model init, selection) receives its own seed derived
//! from one master seed, so changing e.g. the selector's draw count
//! never perturbs the dataset.

use detrand::splitmix64;

/// Named sub-streams of the master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedDomain {
    /// Device population generation.
    Population,
    /// Dataset synthesis.
    Dataset,
    /// Data partitioning across users.
    Partition,
    /// Global model initialization.
    Model,
    /// Client-selection randomness.
    Selection,
    /// Per-client local-training randomness (minibatch shuffles). The
    /// runner splits this domain further into one
    /// [`detrand::Rng::stream`] per `(round, client)` pair, so a
    /// client's draws never depend on which worker thread trains it.
    ClientTraining,
    /// Fault-event sampling. The fault plan splits this domain into
    /// one [`detrand::Rng::stream`] per `(round, device)` pair, so the
    /// fault drawn for a device never depends on thread count,
    /// selection order, or which other devices were selected.
    Faults,
    /// Digest-mode exemplar sampling: the per-round stream that picks
    /// which K devices of a cohort still emit full `device_activity`
    /// spans when the timeline traces as a `cohort_digest`. A
    /// dedicated domain so flipping digest tracing on or off can never
    /// perturb selection, training, or fault draws.
    DigestExemplars,
    /// Anything experiment-specific.
    Experiment(u64),
}

impl SeedDomain {
    fn tag(self) -> u64 {
        match self {
            Self::Population => 0x01,
            Self::Dataset => 0x02,
            Self::Partition => 0x03,
            Self::Model => 0x04,
            Self::Selection => 0x05,
            Self::ClientTraining => 0x06,
            Self::Faults => 0x07,
            Self::DigestExemplars => 0x08,
            Self::Experiment(n) => 0x1000 + n,
        }
    }
}

/// Derives a sub-seed for `domain` from `master` using [`splitmix64`]
/// finalization — cheap, stateless, and avalanche-complete.
///
/// # Examples
///
/// ```
/// use fl_sim::seeds::{derive, SeedDomain};
///
/// let a = derive(42, SeedDomain::Dataset);
/// let b = derive(42, SeedDomain::Partition);
/// assert_ne!(a, b);
/// assert_eq!(a, derive(42, SeedDomain::Dataset));
/// ```
pub fn derive(master: u64, domain: SeedDomain) -> u64 {
    splitmix64(master ^ splitmix64(domain.tag()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_produce_distinct_streams() {
        let master = 7;
        let seeds = [
            derive(master, SeedDomain::Population),
            derive(master, SeedDomain::Dataset),
            derive(master, SeedDomain::Partition),
            derive(master, SeedDomain::Model),
            derive(master, SeedDomain::Selection),
            derive(master, SeedDomain::ClientTraining),
            derive(master, SeedDomain::Faults),
            derive(master, SeedDomain::DigestExemplars),
            derive(master, SeedDomain::Experiment(0)),
            derive(master, SeedDomain::Experiment(1)),
        ];
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn derivation_is_deterministic_and_master_sensitive() {
        assert_eq!(derive(1, SeedDomain::Model), derive(1, SeedDomain::Model));
        assert_ne!(derive(1, SeedDomain::Model), derive(2, SeedDomain::Model));
    }
}

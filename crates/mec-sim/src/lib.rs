//! # mec-sim — mobile-edge-computing system substrate
//!
//! The MEC system the HELCFL paper (DATE 2022) assumes but does not
//! ship: DVFS-capable heterogeneous user devices, a Shannon-rate
//! wireless uplink, a TDMA channel that serializes model uploads, and
//! the delay/energy bookkeeping of Eq. 4–11.
//!
//! The crate is deliberately independent of any learning code — it
//! models *when* things happen and *what they cost*, never what is
//! learned. The `fl-sim` crate couples it to actual training.
//!
//! A round is resolved in one place: [`faults::FaultedRound`] puts the
//! cohort on the TDMA channel and builds every device's outcome, under
//! per-device faults and an optional deadline. Every federated round
//! runs through it. [`timeline::RoundTimeline`] is the same resolution
//! with no fault and no deadline, the view the Fig. 1 and Alg. 3
//! analyses read.
//!
//! ## Quick tour
//!
//! ```
//! use mec_sim::population::PopulationBuilder;
//! use mec_sim::timeline::RoundTimeline;
//! use mec_sim::units::Bits;
//!
//! // 100 heterogeneous devices per the paper's §VII-A.
//! let pop = PopulationBuilder::paper_default().seed(7).build()?;
//!
//! // Simulate one synchronous round for the first ten devices, each
//! // uploading a SqueezeNet-scale 40 Mbit model at max frequency.
//! let selected = &pop.devices()[..10];
//! let round = RoundTimeline::simulate_at_max(selected, Bits::from_megabits(40.0))?;
//! assert!(round.makespan().get() > 0.0);
//! assert!(round.total_energy().get() > 0.0);
//! # Ok::<(), mec_sim::MecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod channel;
pub mod comm;
pub mod cpu;
pub mod device;
pub mod error;
pub mod faults;
pub mod fleet;
#[cfg(test)]
mod oracle;
pub mod order;
pub mod population;
pub mod timeline;
pub mod units;

pub use error::{MecError, Result};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::device::Device>();
        assert_send_sync::<crate::fleet::Fleet>();
        assert_send_sync::<crate::fleet::AliveMask>();
        assert_send_sync::<crate::population::Population>();
        assert_send_sync::<crate::timeline::RoundTimeline>();
        assert_send_sync::<crate::MecError>();
    }
}

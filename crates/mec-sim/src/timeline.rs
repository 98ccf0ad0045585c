//! The fault-free view of a round, for the Fig. 1 and Alg. 3 analyses.
//!
//! [`RoundTimeline`] is a round resolved by [`FaultedRound`] with no
//! fault and no deadline: compute spans, TDMA uploads and the energy
//! accounting of one synchronous FL training iteration. It reports the
//! metrics the paper's evaluation needs — round delay, per-round
//! energy (Eq. 10–11), per-device slack — and an ASCII Gantt rendering
//! of the Fig. 1 schedule. Its type guarantees that nothing failed and
//! nothing was cut, so every device delivered and its outcome is the
//! plain Eq. 4–9 schedule.

use crate::device::{Device, DeviceId};
use crate::error::Result;
use crate::faults::{check_cohort, DeviceOutcome, FaultedRound};
use crate::units::{Bits, Hertz, Joules, Seconds};

/// The resolved timeline of one synchronous round with no fault and
/// no deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTimeline {
    round: FaultedRound,
}

impl RoundTimeline {
    /// Simulates one round for `devices` operating at per-device
    /// frequencies `frequencies`, each uploading `payload` bits.
    ///
    /// Computation runs in parallel across devices from t = 0; uploads
    /// serialize on the TDMA channel in compute-finish order. A
    /// repeated id stays two separate entries.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::EmptyDeviceSet`] for no devices, a
    /// [`MecError::NonPositiveParameter`] if `frequencies` length
    /// mismatches, or [`MecError::FrequencyOutOfRange`] if a frequency
    /// is unsupported by its device.
    ///
    /// [`MecError::EmptyDeviceSet`]: crate::MecError::EmptyDeviceSet
    /// [`MecError::NonPositiveParameter`]: crate::MecError::NonPositiveParameter
    /// [`MecError::FrequencyOutOfRange`]: crate::MecError::FrequencyOutOfRange
    pub fn simulate(devices: &[Device], frequencies: &[Hertz], payload: Bits) -> Result<Self> {
        check_cohort(devices, frequencies)?;
        let round = FaultedRound::resolve(devices, frequencies, payload, |_| None, None)?;
        Ok(Self { round })
    }

    /// Convenience: simulate with every device at its maximum frequency
    /// (the "traditional FL" baseline of §VI-A).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RoundTimeline::simulate`].
    pub fn simulate_at_max(devices: &[Device], payload: Bits) -> Result<Self> {
        let freqs: Vec<Hertz> = devices.iter().map(|d| d.cpu().range().max()).collect();
        Self::simulate(devices, &freqs, payload)
    }

    /// Per-device outcomes in channel (upload) order; every one
    /// uploaded and delivered, with no fault and no waste.
    #[inline]
    pub fn activities(&self) -> &[DeviceOutcome] {
        self.round.outcomes()
    }

    /// Round delay: the TDMA makespan (when the last upload lands).
    pub fn makespan(&self) -> Seconds {
        self.round.round_time()
    }

    /// The paper's Eq. 10 lower bound `max_q (T^cal + T^com)`, which
    /// ignores channel contention.
    pub fn eq10_bound(&self) -> Seconds {
        self.round.eq10_bound()
    }

    /// Total round energy `E_Γ` (Eq. 11).
    pub fn total_energy(&self) -> Joules {
        self.round.total_energy()
    }

    /// Total compute energy across devices.
    pub fn compute_energy(&self) -> Joules {
        self.round.compute_energy()
    }

    /// Total slack across devices — the head-room Alg. 3 exploits.
    pub fn total_slack(&self) -> Seconds {
        self.round.total_slack()
    }

    /// Activity of a specific device, if it participated.
    pub fn activity(&self, device: DeviceId) -> Option<&DeviceOutcome> {
        self.round.outcome(device)
    }

    /// Renders the round as an ASCII Gantt chart (one row per device;
    /// `=` compute, `.` slack wait, `#` upload), reproducing the
    /// paper's Fig. 1 visually.
    pub fn gantt(&self, width: usize) -> String {
        let span = self.makespan().get();
        if span <= 0.0 || width == 0 {
            return String::new();
        }
        let scale = width as f64 / span;
        let mut out = String::new();
        for a in self.activities() {
            let compute = (a.compute_finish.get() * scale).round() as usize;
            let wait = (a.slack().get() * scale).round() as usize;
            let upload =
                ((a.upload_end.get() - a.upload_start.get()) * scale).round() as usize;
            out.push_str(&format!("{:>6} |", a.device.to_string()));
            out.push_str(&"=".repeat(compute));
            out.push_str(&".".repeat(wait));
            out.push_str(&"#".repeat(upload.max(1)));
            out.push('\n');
        }
        out.push_str(&format!(
            "        0{}{:.1}s\n",
            " ".repeat(width.saturating_sub(6)),
            span
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Uplink;
    use crate::error::MecError;
    use crate::cpu::DvfsCpu;
    use crate::units::{BitsPerSecond, Watts};

    fn device(id: usize, fmax_ghz: f64, samples: usize, mbps: f64) -> Device {
        let cpu =
            DvfsCpu::with_paper_alpha(Hertz::from_ghz(0.3), Hertz::from_ghz(fmax_ghz)).unwrap();
        let uplink = Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(mbps)).unwrap();
        Device::new(DeviceId(id), cpu, 1.0e7, samples, uplink).unwrap()
    }

    fn payload() -> Bits {
        Bits::from_megabits(40.0)
    }

    #[test]
    fn empty_device_set_is_rejected() {
        assert!(matches!(
            RoundTimeline::simulate(&[], &[], payload()),
            Err(MecError::EmptyDeviceSet)
        ));
    }

    #[test]
    fn mismatched_frequencies_are_rejected() {
        let devs = [device(0, 2.0, 500, 8.0)];
        assert!(RoundTimeline::simulate(&devs, &[], payload()).is_err());
    }

    #[test]
    fn unsupported_frequency_is_rejected() {
        let devs = [device(0, 1.0, 500, 8.0)];
        assert!(RoundTimeline::simulate(&devs, &[Hertz::from_ghz(1.5)], payload()).is_err());
    }

    #[test]
    fn ids_past_the_key_limit_are_refused_by_field() {
        use crate::order::KEY_LIMIT;
        let mut devs = [device(0, 2.0, 500, 8.0), device(KEY_LIMIT - 1, 1.0, 500, 8.0)];
        assert!(RoundTimeline::simulate_at_max(&devs, payload()).is_ok());
        devs[1] = device(KEY_LIMIT, 1.0, 500, 8.0);
        let err = RoundTimeline::simulate_at_max(&devs, payload()).unwrap_err();
        assert_eq!(err, MecError::KeyOutOfRange { field: "device.id", value: KEY_LIMIT });
        assert!(err.to_string().contains("`device.id` 4294967295"), "{err}");
    }

    #[test]
    fn single_device_round_is_compute_plus_upload() {
        let devs = [device(0, 2.0, 500, 8.0)];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        // 2.5 s compute + 5 s upload.
        assert_eq!(tl.makespan(), Seconds::new(7.5));
        assert_eq!(tl.eq10_bound(), tl.makespan());
        assert_eq!(tl.total_slack(), Seconds::ZERO);
    }

    #[test]
    fn heterogeneous_round_serializes_uploads() {
        // Fast device: T_cal = 2.5 s; slow device: T_cal = 5e9/0.5e9 = 10 s.
        let devs = [device(0, 2.0, 500, 8.0), device(1, 0.5, 500, 8.0)];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        let fast = tl.activity(DeviceId(0)).unwrap();
        let slow = tl.activity(DeviceId(1)).unwrap();
        assert_eq!(fast.upload_start, Seconds::new(2.5));
        assert_eq!(fast.upload_end, Seconds::new(7.5));
        // Slow device computes past the fast upload → starts at t=10.
        assert_eq!(slow.upload_start, Seconds::new(10.0));
        assert_eq!(tl.makespan(), Seconds::new(15.0));
        // Eq. 10 ignores contention: max(7.5, 15) = 15 here.
        assert_eq!(tl.eq10_bound(), Seconds::new(15.0));
    }

    #[test]
    fn slack_appears_when_compute_finishes_during_prior_upload() {
        // Both finish computing close together; uploads serialize.
        let devs = [device(0, 2.0, 500, 8.0), device(1, 2.0, 600, 8.0)];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        let second = tl.activity(DeviceId(1)).unwrap();
        // Device 1 computes 3 s, waits until 7.5 s.
        assert_eq!(second.slack(), Seconds::new(4.5));
        assert!(tl.eq10_bound() < tl.makespan());
    }

    #[test]
    fn energy_accounts_compute_plus_upload_eq11() {
        let devs = [device(0, 2.0, 500, 8.0), device(1, 1.0, 500, 4.0)];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        let manual: Joules = devs
            .iter()
            .map(|d| {
                d.compute_energy(d.cpu().range().max()).unwrap() + d.upload_energy(payload())
            })
            .sum();
        assert!((tl.total_energy().get() - manual.get()).abs() < 1e-12);
        assert!(tl.compute_energy() < tl.total_energy());
    }

    #[test]
    fn lower_frequency_cuts_energy_without_extending_round_when_slack_absorbs_it() {
        let devs = [device(0, 2.0, 500, 8.0), device(1, 2.0, 600, 8.0)];
        let at_max = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        // Slow device 1 so it finishes exactly when device 0's upload ends
        // (t = 7.5 s): f = 6e9 cycles / 7.5 s = 0.8 GHz.
        let freqs = [Hertz::from_ghz(2.0), Hertz::from_ghz(0.8)];
        let tuned = RoundTimeline::simulate(&devs, &freqs, payload()).unwrap();
        assert_eq!(tuned.makespan(), at_max.makespan());
        assert!(tuned.total_energy() < at_max.total_energy());
        assert_eq!(tuned.activity(DeviceId(1)).unwrap().slack(), Seconds::ZERO);
    }

    #[test]
    fn repeated_id_resolves_each_entry_to_itself() {
        // One id twice, at two frequencies: each slot reports its own
        // entry's frequency and energy, consistent with the compute
        // finish that placed it on the channel.
        let devs = [device(3, 2.0, 500, 8.0), device(3, 2.0, 500, 8.0)];
        let freqs = [Hertz::from_ghz(1.0), Hertz::from_ghz(2.0)];
        let tl = RoundTimeline::simulate(&devs, &freqs, payload()).unwrap();
        let [first, second] = tl.activities() else { panic!("two activities") };
        assert_eq!(first.frequency, Hertz::from_ghz(2.0));
        assert_eq!(first.compute_finish, Seconds::new(2.5));
        assert_eq!(second.frequency, Hertz::from_ghz(1.0));
        assert_eq!(second.compute_finish, Seconds::new(5.0));
        for a in tl.activities() {
            assert_eq!(a.compute_finish, devs[0].compute_delay(a.frequency).unwrap());
            assert_eq!(a.compute_energy, devs[0].compute_energy(a.frequency).unwrap());
        }
    }

    #[test]
    fn ties_break_by_id_then_keep_input_order() {
        // Compute finishes 4, 1, 2, 2 and 2 s. Three devices tie at
        // 2 s: id 5 goes first, then the two entries of id 7 in input
        // order, told apart by their upload times (5 s, then 2.5 s).
        let devs = [
            device(7, 2.0, 800, 8.0),
            device(3, 2.0, 200, 8.0),
            device(7, 2.0, 400, 8.0),
            device(7, 2.0, 400, 16.0),
            device(5, 2.0, 400, 8.0),
        ];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        let inputs: Vec<usize> = tl.activities().iter().map(|a| a.input).collect();
        assert_eq!(inputs, vec![1, 4, 2, 3, 0]);
        let ends: Vec<f64> = tl.activities().iter().map(|a| a.upload_end.get()).collect();
        assert_eq!(ends, vec![6.0, 11.0, 16.0, 18.5, 23.5]);
    }

    #[test]
    fn gantt_renders_one_row_per_device() {
        let devs = [device(0, 2.0, 500, 8.0), device(1, 0.5, 500, 8.0)];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        let g = tl.gantt(60);
        assert_eq!(g.lines().count(), 3); // 2 devices + axis
        assert!(g.contains("v0"));
        assert!(g.contains("v1"));
        assert!(g.contains('#'));
    }

    #[test]
    fn gantt_with_zero_width_is_empty() {
        let devs = [device(0, 2.0, 500, 8.0)];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        assert!(tl.gantt(0).is_empty());
    }
}

//! Algorithm 3 — DVFS-enabled operating-frequency determination.
//!
//! §VI-A observes that TDMA serialization leaves devices idling between
//! compute completion and upload start (Fig. 1). Alg. 3 converts that
//! slack into energy savings: sort the selected users by compute delay
//! at `f_max`; the first (no slack) runs at `f_max`; every subsequent
//! user is slowed so its local update finishes exactly when its
//! predecessor's upload ends — because `E ∝ f²` (Eq. 5), finishing
//! "just in time" is strictly cheaper than finishing early and
//! waiting.
//!
//! The paper leaves the derived frequency unclamped; real DVFS ranges
//! are bounded, so this implementation clamps into `[f_min, f_max]`
//! and re-derives the actual finish time from the clamped frequency
//! (see DESIGN.md §7). Clamping at `f_min` still finishes before the
//! channel frees (the ideal frequency was *below* `f_min`), and
//! clamping at `f_max` reproduces the traditional schedule, so the
//! round makespan is never extended — a property test asserts this.

use fl_sim::error::Result;
use fl_sim::frequency::FrequencyPolicy;
use helcfl_telemetry::{Class, Telemetry};
use mec_sim::device::Device;
use mec_sim::order::{self, cohort_order};
use mec_sim::units::{Bits, Hertz, Seconds};

/// The HELCFL frequency policy (Alg. 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlackFrequencyPolicy;

/// Alg. 3: hands each device's input index and frequency to `emit`,
/// in the order Alg. 3 visits the devices: ascending compute delay at
/// `f_max`, then id, then input index. Records its internals into
/// `tele` (all [`Class::Sim`]):
///
/// * `dvfs.downscale` (histogram) — per-device `f / f_max`
///   downscale factor (1.0 for the first user, lower when slack
///   was harvested);
/// * `dvfs.clamped_min` / `dvfs.clamped_max` (counters) — how
///   often the ideal frequency fell outside the DVFS range
///   (DESIGN.md §7's deviation from the unclamped paper);
/// * `dvfs.assignments` (counter) — devices assigned in total.
///
/// # Errors
///
/// Returns [`MecError::KeyOutOfRange`] (as [`FlError::Mec`]) naming
/// `device.id` when an id, or `input` when a position, does not fit
/// the cohort order's 32-bit keys (below
/// [`mec_sim::order::KEY_LIMIT`]). An empty selection assigns nothing.
///
/// [`MecError::KeyOutOfRange`]: mec_sim::MecError::KeyOutOfRange
/// [`FlError::Mec`]: fl_sim::error::FlError::Mec
fn assign(
    selected: &[Device],
    payload: Bits,
    tele: &Telemetry,
    mut emit: impl FnMut(usize, Hertz),
) -> Result<()> {
    // Line 1: ascending by model-update delay at f_max, ties by id,
    // then by input position, through the cohort order. Delays are
    // positive and finite, so their bits sort like their values; the
    // input position makes every key unique, so the order has one
    // possible result.
    let order =
        cohort_order(selected, |_, d| Ok(d.compute_delay_at_max().get().to_bits()))?;

    let mut channel_free = Seconds::ZERO;
    let mut clamped_min = 0u64;
    let mut clamped_max = 0u64;
    for (pos, &key) in order.iter().enumerate() {
        let idx = order::input(key);
        let device = &selected[idx];
        let (range, work) = (device.cpu().range(), device.work());
        let at_max = Seconds::new(f64::from_bits(order::primary(key)));
        // Each branch takes its compute finish at the frequency it
        // picks; only the ideal one depends on `channel_free`, so a
        // clamped device adds one division to that chain, not two.
        let (f, compute_finish) = if pos == 0 {
            // Lines 3–4: no slack for the first user.
            (range.max(), at_max)
        } else {
            // Line 9: finish computing when the predecessor's upload
            // ends (channel_free), clamped to the range.
            let ideal = work / channel_free;
            if ideal < range.min() {
                clamped_min += 1;
                (range.min(), work / range.min())
            } else if ideal > range.max() {
                clamped_max += 1;
                (range.max(), at_max)
            } else {
                (ideal, work / ideal)
            }
        };
        if tele.is_enabled() {
            tele.record(Class::Sim, "dvfs.downscale", f / range.max());
        }
        let upload_start = compute_finish.max(channel_free);
        channel_free = upload_start + device.upload_delay(payload);
        emit(idx, f);
    }
    if tele.is_enabled() {
        tele.with_metrics(|m| {
            m.counter_add(Class::Sim, "dvfs.assignments", order.len() as u64);
            m.counter_add(Class::Sim, "dvfs.clamped_min", clamped_min);
            m.counter_add(Class::Sim, "dvfs.clamped_max", clamped_max);
        });
    }
    Ok(())
}

impl FrequencyPolicy for SlackFrequencyPolicy {
    fn name(&self) -> &'static str {
        "dvfs-slack"
    }

    /// Alg. 3 only *harvests* slack — every device still finishes no
    /// later than the moment the channel would reach it at `f_max` —
    /// so the makespan bound holds and the trace auditor enforces it.
    fn delay_neutral(&self) -> bool {
        true
    }

    fn frequencies(&self, selected: &[Device], payload: Bits) -> Result<Vec<Hertz>> {
        self.frequencies_traced(selected, payload, &Telemetry::disabled())
    }

    fn frequencies_traced(
        &self,
        selected: &[Device],
        payload: Bits,
        tele: &Telemetry,
    ) -> Result<Vec<Hertz>> {
        let mut freqs = vec![Hertz::ZERO; selected.len()];
        assign(selected, payload, tele, |idx, f| freqs[idx] = f)?;
        Ok(freqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_sim::comm::Uplink;
    use mec_sim::device::DeviceId;
    use mec_sim::cpu::DvfsCpu;
    use mec_sim::timeline::RoundTimeline;
    use mec_sim::units::{BitsPerSecond, Watts};

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
    fn fastest_device_keeps_its_maximum_frequency() {
        let devs = [device(0, 2.0, 500, 8.0), device(1, 1.0, 500, 8.0)];
        let freqs = SlackFrequencyPolicy.frequencies(&devs, payload()).unwrap();
        // Device 0 computes fastest (2.5 s vs 10 s) → f_max.
        assert_eq!(freqs[0], Hertz::from_ghz(2.0));
    }

    #[test]
    fn second_device_finishes_exactly_when_channel_frees() {
        // Device 0: T_cal 2.5 s, upload 5 s → channel free at 7.5 s.
        // Device 1 (same hardware, more data): ideal f = 6e9/7.5 = 0.8 GHz.
        let devs = [device(0, 2.0, 500, 8.0), device(1, 2.0, 600, 8.0)];
        let freqs = SlackFrequencyPolicy.frequencies(&devs, payload()).unwrap();
        assert_eq!(freqs[0], Hertz::from_ghz(2.0));
        assert!((freqs[1].ghz() - 0.8).abs() < 1e-9, "got {}", freqs[1].ghz());
        // The tuned schedule leaves the second device zero slack.
        let tl = RoundTimeline::simulate(&devs, &freqs, payload()).unwrap();
        assert_eq!(tl.activity(DeviceId(1)).unwrap().slack(), Seconds::ZERO);
    }

    #[test]
    fn derived_frequency_clamps_to_f_min() {
        // Huge slack: device 1 is tiny but the channel stays busy long.
        let devs = [device(0, 2.0, 500, 0.5), device(1, 2.0, 520, 0.5)];
        // Upload takes 80 s; ideal f for device 1 ≈ 5.2e9/82.5 ≈ 0.063 GHz
        // → clamped to f_min = 0.3 GHz.
        let freqs = SlackFrequencyPolicy.frequencies(&devs, payload()).unwrap();
        assert_eq!(freqs[1], Hertz::from_ghz(0.3));
    }

    #[test]
    fn derived_frequency_clamps_to_f_max_when_slack_is_negative() {
        // Device 1 is much slower: even f_max cannot meet the channel-
        // free deadline → clamp to f_max (traditional behaviour).
        let devs = [device(0, 2.0, 100, 8.0), device(1, 0.5, 2000, 8.0)];
        let freqs = SlackFrequencyPolicy.frequencies(&devs, payload()).unwrap();
        assert_eq!(freqs[1], Hertz::from_ghz(0.5));
    }

    #[test]
    fn dvfs_saves_energy_without_extending_the_round() {
        let devs = [
            device(0, 2.0, 500, 8.0),
            device(1, 1.8, 520, 6.0),
            device(2, 1.5, 480, 4.0),
            device(3, 0.9, 510, 7.0),
        ];
        let baseline = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        let freqs = SlackFrequencyPolicy.frequencies(&devs, payload()).unwrap();
        let tuned = RoundTimeline::simulate(&devs, &freqs, payload()).unwrap();
        assert!(
            (tuned.makespan().get() - baseline.makespan().get()).abs() < 1e-9,
            "DVFS must not extend the round: {} vs {}",
            tuned.makespan(),
            baseline.makespan()
        );
        assert!(
            tuned.total_energy() < baseline.total_energy(),
            "DVFS must cut energy: {} vs {}",
            tuned.total_energy(),
            baseline.total_energy()
        );
    }

    #[test]
    fn traced_frequencies_match_untraced_and_record_downscale() {
        let devs = [
            device(0, 2.0, 500, 8.0),
            device(1, 1.8, 520, 6.0),
            device(2, 1.5, 480, 4.0),
            device(3, 0.9, 510, 7.0),
        ];
        let tele = Telemetry::metrics_only();
        let plain = SlackFrequencyPolicy.frequencies(&devs, payload()).unwrap();
        let traced =
            SlackFrequencyPolicy.frequencies_traced(&devs, payload(), &tele).unwrap();
        assert_eq!(plain, traced, "tracing changed the assignment");
        let snap = tele.snapshot();
        assert_eq!(snap.counter("dvfs.assignments"), 4);
        let downscale = snap.histogram("dvfs.downscale").unwrap();
        assert_eq!(downscale.count, 4);
        // The first (fastest) device always runs at f_max …
        assert_eq!(downscale.max, 1.0);
        // … and this workload leaves harvestable slack for the rest.
        assert!(downscale.min < 1.0, "no slack was harvested");
        // All DVFS metrics are deterministic (Sim-class).
        assert_eq!(snap.deterministic().len(), snap.len());
    }

    #[test]
    fn single_device_gets_f_max() {
        let devs = [device(0, 1.3, 700, 5.0)];
        let freqs = SlackFrequencyPolicy.frequencies(&devs, payload()).unwrap();
        assert_eq!(freqs, vec![Hertz::from_ghz(1.3)]);
    }

    #[test]
    fn ids_past_the_key_limit_are_refused_by_field() {
        use fl_sim::error::FlError;
        use mec_sim::order::KEY_LIMIT;
        use mec_sim::MecError;
        let mut devs = [device(0, 2.0, 500, 8.0), device(KEY_LIMIT - 1, 1.0, 500, 8.0)];
        assert_eq!(SlackFrequencyPolicy.frequencies(&devs, payload()).unwrap().len(), 2);
        for id in [KEY_LIMIT, usize::MAX] {
            devs[1] = device(id, 1.0, 500, 8.0);
            let err = SlackFrequencyPolicy.frequencies(&devs, payload()).unwrap_err();
            assert_eq!(
                err,
                FlError::Mec(MecError::KeyOutOfRange { field: "device.id", value: id })
            );
        }
    }

    #[test]
    fn empty_selection_yields_empty_assignment() {
        let freqs = SlackFrequencyPolicy.frequencies(&[], payload()).unwrap();
        assert!(freqs.is_empty());
    }

    /// Alg. 3's `(input index, f)` pairs in visiting order.
    fn visits(selected: &[Device], payload: Bits) -> Vec<(usize, Hertz)> {
        let mut assignment = Vec::with_capacity(selected.len());
        assign(selected, payload, &Telemetry::disabled(), |idx, f| assignment.push((idx, f)))
            .unwrap();
        assignment
    }

    /// Alg. 3 as it ran before its bit-key sort: a stable sort by
    /// delay (`partial_cmp`), then id, keeping full ties in input
    /// order. The oracle for the production ordering.
    fn stable_sort_alg3(selected: &[Device], payload: Bits) -> Vec<(usize, Hertz)> {
        let mut order: Vec<(Seconds, DeviceId, usize)> = selected
            .iter()
            .enumerate()
            .map(|(idx, d)| (d.compute_delay_at_max(), d.id(), idx))
            .collect();
        order.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("delays are finite").then_with(|| a.1.cmp(&b.1))
        });
        let mut channel_free = Seconds::ZERO;
        let mut assignment = Vec::with_capacity(selected.len());
        for (pos, &(_, _, idx)) in order.iter().enumerate() {
            let device = &selected[idx];
            let f = if pos == 0 {
                device.cpu().range().max()
            } else {
                device.cpu().range().clamp(device.work() / channel_free)
            };
            let upload_start = (device.work() / f).max(channel_free);
            channel_free = upload_start + device.upload_delay(payload);
            assignment.push((idx, f));
        }
        assignment
    }

    #[test]
    fn bit_key_order_matches_the_stable_sort_oracle() {
        use mec_sim::population::PopulationBuilder;
        let fleet =
            PopulationBuilder::paper_default().num_devices(5_000).seed(2022).build_fleet().unwrap();
        let f_min = fleet.device(0).cpu().range().min();
        let mut rng = detrand::Rng::seed_from_u64(0xa193);
        let mut clamped = 0;
        for case in 0..200 {
            let n = rng.range_usize(1, 400);
            // Half the cases draw from a small id range, so ids repeat.
            let span = if case % 2 == 0 { 5_000 } else { 1 + n / 4 };
            let mut cohort: Vec<Device> =
                (0..n).map(|_| fleet.device(rng.below(span))).collect();
            // Equal work under distinct ids: copies of one device's
            // hardware and data, renumbered, at random positions. Up to
            // 79 of them make a run of equal delays longer than the
            // cohort order's insertion cutoff.
            if case % 3 == 0 {
                let twin = cohort[0];
                for k in 0..rng.range_usize(1, 80) {
                    let id = DeviceId(10_000 + rng.below(4) + k);
                    let renumbered = Device::new(
                        id,
                        *twin.cpu(),
                        twin.cycles_per_sample(),
                        twin.num_samples(),
                        *twin.uplink(),
                    )
                    .unwrap();
                    let at = rng.below(cohort.len() + 1);
                    cohort.insert(at, renumbered);
                }
            }
            let got = visits(&cohort, payload());
            let want = stable_sort_alg3(&cohort, payload());
            let bits = |a: &[(usize, Hertz)]| {
                a.iter().map(|&(i, f)| (i, f.get().to_bits())).collect::<Vec<_>>()
            };
            assert_eq!(bits(&got), bits(&want), "case {case}: n {n}");
            clamped += got.iter().filter(|&&(_, f)| f == f_min).count();
        }
        // The paper fleet's cohorts clamp most devices to f_min, where
        // equal work makes equal finishes.
        assert!(clamped > 10_000, "only {clamped} f_min clamps");
    }

    #[test]
    fn assignment_indices_cover_input_order() {
        let devs = [device(5, 0.8, 500, 8.0), device(2, 2.0, 500, 8.0)];
        let assignment = visits(&devs, payload());
        let mut indices: Vec<usize> = assignment.iter().map(|(i, _)| *i).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1]);
        // Sorted order starts with the faster device (input index 1).
        assert_eq!(assignment[0].0, 1);
    }
}

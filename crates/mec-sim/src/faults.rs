//! Fault-afflicted round timelines: the MEC half of the fault layer.
//!
//! [`FaultedRound`] is [`crate::timeline::RoundTimeline`]'s sibling
//! for rounds where devices misbehave. It resolves per-device
//! [`DeviceFault`]s — crashes mid-compute or mid-upload, straggler
//! slow-down below the DVFS-assigned frequency, transient upload
//! failures with bounded retry-and-backoff, and channel-gain
//! degradation — into the same TDMA discipline the healthy timeline
//! uses, then applies an optional round deadline `T_max` after which
//! stragglers are dropped. Every joule a device spends is accounted,
//! including the *wasted* energy of failed work, so the energy story
//! (Eq. 10/11) stays closed under faults.
//!
//! With an all-`None` fault vector and no deadline, the resolved
//! schedule is bit-identical to [`RoundTimeline::simulate`]: the same
//! `compute_delay`/`upload_delay` calls feed the same
//! [`TdmaSchedule`] arithmetic in the same order.
//!
//! [`RoundTimeline::simulate`]: crate::timeline::RoundTimeline::simulate

use helcfl_telemetry::{Class, Histogram, MetricsRegistry, Span};

use crate::device::{Device, DeviceId};
use crate::error::{MecError, Result};
use crate::tdma::{TdmaSchedule, UploadRequest, UploadSlot};
use crate::timeline::{sample_exemplars, DigestConfig};
use crate::units::{Bits, Hertz, Joules, Seconds, Watts};

/// One fault event afflicting one device for one round.
///
/// At most one fault fires per device per round; the sampling layer
/// (`fl_sim::faults::FaultPlan`) enforces the exclusivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceFault {
    /// The device vanishes `at ∈ (0, 1]` of the way through its local
    /// update. It never reaches the channel; the partial compute
    /// energy is wasted.
    CrashCompute {
        /// Fraction of the compute span completed before the crash.
        at: f64,
    },
    /// The device vanishes `at ∈ (0, 1)` of the way through its upload
    /// transmission. The channel frees early; everything it spent is
    /// wasted.
    CrashUpload {
        /// Fraction of the upload transmitted before the crash.
        at: f64,
    },
    /// Thermal throttling / background load: the effective frequency
    /// is `slowdown ∈ (0, 1)` times the assigned one, stretching the
    /// compute span and violating any slack schedule built on the
    /// assignment.
    Straggler {
        /// Effective-frequency factor.
        slowdown: f64,
    },
    /// Transient upload failures: `failed_attempts` transmissions fail
    /// (each costing a full payload's energy), with `backoff` idle
    /// after every failure. If `exhausted`, the device gives up after
    /// the last failure (the retry budget ran out); otherwise one
    /// final attempt succeeds.
    UploadRetry {
        /// Number of failed transmission attempts (≥ 1).
        failed_attempts: u32,
        /// Idle back-off after each failed attempt.
        backoff: Seconds,
        /// Whether the retry budget ran out (no successful attempt).
        exhausted: bool,
    },
    /// Channel-gain degradation: the effective uplink rate is
    /// `gain ∈ (0, 1)` times nominal, so the one successful upload
    /// takes — and costs — `1 / gain` times more.
    ChannelDegradation {
        /// Rate factor.
        gain: f64,
    },
}

impl DeviceFault {
    /// Stable kind label used in spans and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::CrashCompute { .. } => "crash-compute",
            Self::CrashUpload { .. } => "crash-upload",
            Self::Straggler { .. } => "straggler",
            Self::UploadRetry { exhausted: false, .. } => "upload-retry",
            Self::UploadRetry { exhausted: true, .. } => "retry-exhausted",
            Self::ChannelDegradation { .. } => "channel-degradation",
        }
    }

    fn validate(&self) -> Result<()> {
        let bad = |name: &'static str, value: f64| {
            Err(MecError::NonPositiveParameter { name, value })
        };
        match *self {
            Self::CrashCompute { at } => {
                if !(at > 0.0 && at <= 1.0) {
                    return bad("fault.crash_compute.at", at);
                }
            }
            Self::CrashUpload { at } => {
                if !(at > 0.0 && at < 1.0) {
                    return bad("fault.crash_upload.at", at);
                }
            }
            Self::Straggler { slowdown } => {
                if !(slowdown > 0.0 && slowdown < 1.0) {
                    return bad("fault.straggler.slowdown", slowdown);
                }
            }
            Self::UploadRetry { failed_attempts, backoff, .. } => {
                if failed_attempts == 0 {
                    return bad("fault.upload_retry.failed_attempts", 0.0);
                }
                if !(backoff.get() >= 0.0 && backoff.is_finite()) {
                    return bad("fault.upload_retry.backoff", backoff.get());
                }
            }
            Self::ChannelDegradation { gain } => {
                if !(gain > 0.0 && gain < 1.0) {
                    return bad("fault.channel_degradation.gain", gain);
                }
            }
        }
        Ok(())
    }
}

/// Why a device's update never reached the aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// Crashed during its local update.
    CrashCompute,
    /// Crashed during its upload.
    CrashUpload,
    /// Exhausted its retry budget.
    RetriesExhausted,
    /// Its upload landed after the round deadline `T_max`.
    DeadlineExceeded,
}

impl AbortReason {
    /// Stable label used in `abort` spans.
    pub fn label(self) -> &'static str {
        match self {
            Self::CrashCompute => "crash-compute",
            Self::CrashUpload => "crash-upload",
            Self::RetriesExhausted => "retries-exhausted",
            Self::DeadlineExceeded => "deadline-exceeded",
        }
    }
}

/// One device's fully-resolved, fault-aware activity within a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceOutcome {
    /// The device.
    pub device: DeviceId,
    /// Its position in the `devices` slice the round was simulated
    /// from.
    pub input: usize,
    /// The fault that fired, if any.
    pub fault: Option<DeviceFault>,
    /// Why delivery failed, when it did.
    pub abort: Option<AbortReason>,
    /// Whether its update reached the aggregator.
    pub delivered: bool,
    /// Whether it occupied the TDMA channel at all (crashed-in-compute
    /// devices never do).
    pub uploaded: bool,
    /// Effective operating frequency (equals the plan unless a
    /// straggler fault fired).
    pub frequency: Hertz,
    /// The DVFS-assigned frequency the policy planned.
    pub planned_frequency: Hertz,
    /// The device's maximum frequency.
    pub f_max: Hertz,
    /// Compute finish the plan promised (at `planned_frequency`).
    pub planned_compute_finish: Seconds,
    /// Nominal upload duration the plan assumed.
    pub planned_upload: Seconds,
    /// When compute actually ended — the finish time, or the crash
    /// instant for `CrashCompute`.
    pub compute_finish: Seconds,
    /// When its channel occupation started (= `compute_finish` for
    /// non-uploading devices).
    pub upload_start: Seconds,
    /// When its channel occupation ended (crash, give-up, or success).
    pub upload_end: Seconds,
    /// Compute energy actually spent (partial for crashes, inflated
    /// `∝ f²`-style deflated for stragglers, truncated at `T_max`).
    pub compute_energy: Joules,
    /// Reference compute energy at `f_max` (the `E ∝ f²` anchor).
    pub compute_energy_at_max: Joules,
    /// Upload energy actually spent, including every failed attempt.
    pub upload_energy: Joules,
    /// The share of the spent energy that bought nothing: all of it
    /// for non-delivered devices, the failed attempts for devices that
    /// delivered after retries.
    pub wasted_energy: Joules,
    /// Failed upload attempts.
    pub retries: u32,
}

impl DeviceOutcome {
    /// Total energy this device drained this round.
    #[inline]
    pub fn total_energy(&self) -> Joules {
        self.compute_energy + self.upload_energy
    }

    /// Idle wait between compute completion and channel acquisition
    /// (zero for devices that never uploaded).
    #[inline]
    pub fn slack(&self) -> Seconds {
        if self.uploaded {
            self.upload_start - self.compute_finish
        } else {
            Seconds::ZERO
        }
    }

    /// When the FLCC learns this device is done with the round: the
    /// upload end for channel users, the crash instant otherwise.
    #[inline]
    pub fn release_time(&self) -> Seconds {
        if self.uploaded {
            self.upload_end
        } else {
            self.compute_finish
        }
    }
}

/// Per-device channel-occupation profile before TDMA placement.
pub(crate) struct UploadProfile {
    /// Total channel occupation (transmissions + back-off idles).
    occupation: Seconds,
    /// Active transmission segments as `(offset, duration)` relative
    /// to the occupation start.
    pub(crate) segments: Vec<(f64, f64)>,
    delivered: bool,
    retries: u32,
    abort: Option<AbortReason>,
}

/// One input device resolved before TDMA placement: its effective
/// compute span and energy, and its channel-occupation profile
/// (`None` when it crashes mid-compute and never reaches the channel).
pub(crate) struct Resolved {
    frequency: Hertz,
    planned_compute_finish: Seconds,
    planned_upload: Seconds,
    compute_finish: Seconds,
    compute_energy: Joules,
    pub(crate) profile: Option<UploadProfile>,
}

impl Resolved {
    /// Resolves `dev` at planned frequency `f` under `fault`.
    pub(crate) fn new(
        dev: &Device,
        f: Hertz,
        payload: Bits,
        fault: Option<&DeviceFault>,
    ) -> Result<Self> {
        let planned_compute_finish = dev.compute_delay(f)?;
        let planned_upload = dev.upload_delay(payload);
        let d = planned_upload.get();
        let (frequency, compute_finish) = match fault {
            Some(DeviceFault::Straggler { slowdown }) => {
                let eff = f * *slowdown;
                (eff, dev.work() / eff)
            }
            Some(DeviceFault::CrashCompute { at }) => (f, planned_compute_finish * *at),
            _ => (f, planned_compute_finish),
        };
        let compute_energy = if frequency == f {
            match fault {
                Some(DeviceFault::CrashCompute { at }) => dev.compute_energy(f)? * *at,
                _ => dev.compute_energy(f)?,
            }
        } else {
            // Straggler: Eq. 5 priced at the (possibly out-of-range)
            // effective frequency.
            dev.cpu().compute_energy_unchecked(dev.work(), frequency)
        };
        let profile = match fault {
            Some(DeviceFault::CrashCompute { .. }) => None,
            Some(DeviceFault::CrashUpload { at }) => Some(UploadProfile {
                occupation: planned_upload * *at,
                segments: vec![(0.0, at * d)],
                delivered: false,
                retries: 0,
                abort: Some(AbortReason::CrashUpload),
            }),
            Some(DeviceFault::UploadRetry { failed_attempts, backoff, exhausted }) => {
                let n = *failed_attempts as f64;
                let b = backoff.get();
                let (occupation, attempts) = if *exhausted {
                    // n failures with back-off between them; the device
                    // gives up after the last failure.
                    (n * d + (n - 1.0) * b, *failed_attempts)
                } else {
                    // n failures, each followed by back-off, then one
                    // successful transmission.
                    (n * (d + b) + d, *failed_attempts + 1)
                };
                let segments = (0..attempts).map(|k| (k as f64 * (d + b), d)).collect();
                Some(UploadProfile {
                    occupation: Seconds::new(occupation),
                    segments,
                    delivered: !*exhausted,
                    retries: *failed_attempts,
                    abort: exhausted.then_some(AbortReason::RetriesExhausted),
                })
            }
            Some(DeviceFault::ChannelDegradation { gain }) => Some(UploadProfile {
                occupation: planned_upload / *gain,
                segments: vec![(0.0, d / gain)],
                delivered: true,
                retries: 0,
                abort: None,
            }),
            Some(DeviceFault::Straggler { .. }) | None => Some(UploadProfile {
                occupation: planned_upload,
                segments: vec![(0.0, d)],
                delivered: true,
                retries: 0,
                abort: None,
            }),
        };
        Ok(Self {
            frequency,
            planned_compute_finish,
            planned_upload,
            compute_finish,
            compute_energy,
            profile,
        })
    }

    /// The channel request of a device that reaches the channel.
    pub(crate) fn request(&self, dev: &Device) -> Option<UploadRequest> {
        self.profile.as_ref().map(|p| UploadRequest {
            device: dev.id(),
            compute_finish: self.compute_finish,
            upload_duration: p.occupation,
        })
    }

    /// The outcome before the deadline cut: placed in `slot` when the
    /// device reached the channel, crashed mid-compute otherwise.
    /// Wasted energy is left at zero for the caller to settle.
    pub(crate) fn outcome(
        &self,
        input: usize,
        dev: &Device,
        planned_frequency: Hertz,
        fault: Option<DeviceFault>,
        slot: Option<&UploadSlot>,
    ) -> Result<DeviceOutcome> {
        let f_max = dev.cpu().range().max();
        let mut o = DeviceOutcome {
            device: dev.id(),
            input,
            fault,
            abort: Some(AbortReason::CrashCompute),
            delivered: false,
            uploaded: false,
            frequency: self.frequency,
            planned_frequency,
            f_max,
            planned_compute_finish: self.planned_compute_finish,
            planned_upload: self.planned_upload,
            compute_finish: self.compute_finish,
            upload_start: self.compute_finish,
            upload_end: self.compute_finish,
            compute_energy: self.compute_energy,
            compute_energy_at_max: dev.compute_energy(f_max)?,
            upload_energy: Joules::ZERO,
            wasted_energy: Joules::ZERO,
            retries: 0,
        };
        if let (Some(slot), Some(p)) = (slot, &self.profile) {
            let transmit: f64 = p.segments.iter().map(|&(_, len)| len).sum();
            o.abort = p.abort;
            o.delivered = p.delivered;
            o.uploaded = true;
            o.upload_start = slot.upload_start;
            o.upload_end = slot.upload_end;
            o.upload_energy = dev.uplink().power() * Seconds::new(transmit);
            o.retries = p.retries;
        }
        Ok(o)
    }
}

/// Cuts `o` at the fired deadline `t`: a delivery landing after it is
/// dropped, and energy accrues only for work performed before the
/// cut — compute pro-rated over its span, upload over the transmit
/// `segments` that overlap `[0, t]`.
pub(crate) fn cut_at_deadline(
    o: &mut DeviceOutcome,
    t: f64,
    segments: &[(f64, f64)],
    power: Watts,
) {
    if o.delivered && o.upload_end.get() > t {
        o.delivered = false;
        o.abort = Some(AbortReason::DeadlineExceeded);
    }
    if o.compute_finish.get() > t {
        let scale = t / o.compute_finish.get();
        o.compute_energy = o.compute_energy * scale;
    }
    if o.uploaded && o.upload_end.get() > t {
        let start = o.upload_start.get();
        let transmit_before: f64 = segments
            .iter()
            .map(|&(off, len)| (t.min(start + off + len) - (start + off)).max(0.0))
            .sum();
        o.upload_energy = power * Seconds::new(transmit_before);
    }
}

/// The resolved timeline of one fault-afflicted synchronous round.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedRound {
    outcomes: Vec<DeviceOutcome>,
    payload: Bits,
    round_time: Seconds,
    deadline: Option<Seconds>,
    deadline_fired: bool,
}

impl FaultedRound {
    /// Simulates one round for `devices` at planned `frequencies`,
    /// each uploading `payload` bits, with `faults[i]` afflicting
    /// `devices[i]` and an optional round deadline.
    ///
    /// Devices that reach the channel serialize exactly like
    /// [`TdmaSchedule`] (FIFO by actual compute finish, device-id
    /// tie-break); retry sequences and degraded uploads occupy one
    /// contiguous window. When `deadline` is set and any device's
    /// release time exceeds it, the round is cut at `T_max`: updates
    /// landing later are dropped and their energy is pro-rated to the
    /// work actually performed before the cut.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::EmptyDeviceSet`] for no devices,
    /// [`MecError::NonPositiveParameter`] on length mismatches or
    /// invalid fault parameters, and
    /// [`MecError::FrequencyOutOfRange`] if a *planned* frequency is
    /// unsupported (effective straggler frequencies may legitimately
    /// fall below `f_min`).
    pub fn simulate(
        devices: &[Device],
        frequencies: &[Hertz],
        payload: Bits,
        faults: &[Option<DeviceFault>],
        deadline: Option<Seconds>,
    ) -> Result<Self> {
        if devices.is_empty() {
            return Err(MecError::EmptyDeviceSet);
        }
        if devices.len() != frequencies.len() {
            return Err(MecError::NonPositiveParameter {
                name: "frequencies.len",
                value: frequencies.len() as f64,
            });
        }
        if devices.len() != faults.len() {
            return Err(MecError::NonPositiveParameter {
                name: "faults.len",
                value: faults.len() as f64,
            });
        }
        if let Some(t) = deadline {
            if !(t.get() > 0.0 && t.is_finite()) {
                return Err(MecError::NonPositiveParameter {
                    name: "deadline",
                    value: t.get(),
                });
            }
        }
        for fault in faults.iter().flatten() {
            fault.validate()?;
        }

        // Phase 1: resolve each device's effective compute span and
        // channel-occupation profile, by input position.
        let mut resolved = Vec::with_capacity(devices.len());
        for ((dev, &f), fault) in devices.iter().zip(frequencies).zip(faults) {
            resolved.push(Resolved::new(dev, f, payload, fault.as_ref())?);
        }

        // Phase 2: serialize channel users with the standard TDMA
        // discipline (retry windows occupy one contiguous slot).
        // `users[k]` is the input position behind request `k`.
        let mut users = Vec::with_capacity(devices.len());
        let mut requests = Vec::with_capacity(devices.len());
        for (i, (dev, r)) in devices.iter().zip(&resolved).enumerate() {
            if let Some(request) = r.request(dev) {
                users.push(i);
                requests.push(request);
            }
        }
        let schedule = TdmaSchedule::new(&requests);

        // Phase 3: assemble outcomes — channel order first (exactly
        // like the healthy timeline), crashed-in-compute devices after,
        // by id. Every slot resolves through its request's position.
        let mut outcomes = Vec::with_capacity(devices.len());
        for slot in schedule.slots() {
            let i = users[slot.request];
            let dev = &devices[i];
            outcomes.push(resolved[i].outcome(i, dev, frequencies[i], faults[i], Some(slot))?);
        }
        let mut crashed: Vec<usize> =
            (0..devices.len()).filter(|&i| resolved[i].profile.is_none()).collect();
        crashed.sort_by_key(|&i| devices[i].id());
        for i in crashed {
            outcomes.push(resolved[i].outcome(i, &devices[i], frequencies[i], faults[i], None)?);
        }

        // Phase 4: apply the round deadline, then finalize waste.
        let natural = outcomes
            .iter()
            .map(DeviceOutcome::release_time)
            .fold(Seconds::ZERO, Seconds::max);
        let deadline_fired = deadline.is_some_and(|t| natural > t);
        let round_time = if deadline_fired { deadline.expect("fired") } else { natural };
        if deadline_fired {
            for o in &mut outcomes {
                let i = o.input;
                let segments =
                    resolved[i].profile.as_ref().map_or(&[][..], |p| p.segments.as_slice());
                cut_at_deadline(o, round_time.get(), segments, devices[i].uplink().power());
            }
        }
        for o in &mut outcomes {
            o.wasted_energy = if !o.delivered {
                o.total_energy()
            } else if o.retries > 0 {
                // Failed attempts bought nothing; the final successful
                // transmission did.
                o.upload_energy - devices[o.input].upload_energy(payload)
            } else {
                Joules::ZERO
            };
        }

        Ok(Self { outcomes, payload, round_time, deadline, deadline_fired })
    }

    /// Per-device outcomes: channel users in upload order, then
    /// crashed-in-compute devices by id.
    #[inline]
    pub fn outcomes(&self) -> &[DeviceOutcome] {
        &self.outcomes
    }

    /// The outcome of a specific device, if it participated. A linear
    /// search: to resolve a whole cohort, use
    /// [`FaultedRound::delivery_by_input`] or [`DeviceOutcome::input`].
    pub fn outcome(&self, device: DeviceId) -> Option<&DeviceOutcome> {
        self.outcomes.iter().find(|o| o.device == device)
    }

    /// Whether each input device's update reached the aggregator,
    /// indexed like the `devices` slice the round was simulated from.
    pub fn delivery_by_input(&self) -> Vec<bool> {
        let mut delivered = vec![false; self.outcomes.len()];
        for o in &self.outcomes {
            delivered[o.input] = o.delivered;
        }
        delivered
    }

    /// The model payload size used for uploads.
    #[inline]
    pub fn payload(&self) -> Bits {
        self.payload
    }

    /// Round delay: the last release time, cut at `T_max` when the
    /// deadline fired.
    #[inline]
    pub fn round_time(&self) -> Seconds {
        self.round_time
    }

    /// The configured round deadline, if any.
    #[inline]
    pub fn deadline(&self) -> Option<Seconds> {
        self.deadline
    }

    /// Whether the deadline actually cut this round short.
    #[inline]
    pub fn deadline_fired(&self) -> bool {
        self.deadline_fired
    }

    /// Number of updates that reached the aggregator.
    pub fn delivered_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.delivered).count()
    }

    /// Number of devices that occupied the channel.
    pub fn uploaded_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.uploaded).count()
    }

    /// Number of fault events that fired this round.
    pub fn faults_fired(&self) -> usize {
        self.outcomes.iter().filter(|o| o.fault.is_some()).count()
    }

    /// The Eq. 10 bound analogue over effective spans.
    pub fn eq10_bound(&self) -> Seconds {
        self.outcomes
            .iter()
            .map(|o| {
                if o.uploaded {
                    o.compute_finish + (o.upload_end - o.upload_start)
                } else {
                    o.compute_finish
                }
            })
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Total energy actually drained this round, wasted joules
    /// included (Eq. 11 under faults).
    pub fn total_energy(&self) -> Joules {
        self.outcomes.iter().map(DeviceOutcome::total_energy).sum()
    }

    /// Compute-only share of the round energy.
    pub fn compute_energy(&self) -> Joules {
        self.outcomes.iter().map(|o| o.compute_energy).sum()
    }

    /// Total slack across channel users.
    pub fn total_slack(&self) -> Seconds {
        self.outcomes.iter().map(DeviceOutcome::slack).sum()
    }

    /// Total energy spent on work that never reached the aggregator.
    pub fn wasted_energy(&self) -> Joules {
        self.outcomes.iter().map(|o| o.wasted_energy).sum()
    }

    /// Records this round's profile into a metrics registry: the same
    /// base series as the healthy timeline (`tdma.uploads`,
    /// `tdma.queue_wait_s`, `device.energy_j`,
    /// `device.compute_energy_j`, `round.makespan_s`,
    /// `round.slack_total_s`) plus the fault series `faults.fired`
    /// (counter), `faults.wasted_energy_j` (histogram, one sample per
    /// round), and `round.delivered` (counter).
    pub fn record_metrics(&self, registry: &mut MetricsRegistry) {
        registry.counter_add(Class::Sim, "tdma.uploads", self.uploaded_count() as u64);
        for o in &self.outcomes {
            if o.uploaded {
                registry.record(Class::Sim, "tdma.queue_wait_s", o.slack().get());
            }
            registry.record(Class::Sim, "device.energy_j", o.total_energy().get());
            registry.record(Class::Sim, "device.compute_energy_j", o.compute_energy.get());
        }
        registry.record(Class::Sim, "round.makespan_s", self.round_time.get());
        registry.record(Class::Sim, "round.slack_total_s", self.total_slack().get());
        registry.counter_add(Class::Sim, "faults.fired", self.faults_fired() as u64);
        registry.counter_add(Class::Sim, "round.delivered", self.delivered_count() as u64);
        registry.record(Class::Sim, "faults.wasted_energy_j", self.wasted_energy().get());
    }

    /// Attaches this round's resolved, fault-annotated schedule to an
    /// open `timeline` span: summary totals and fault flags on the
    /// span itself, one `device_activity` child per device (the
    /// healthy attributes plus the planned-vs-effective pairs the
    /// auditor replays), and one `fault` / `retry` / `abort` marker
    /// child per event.
    pub fn trace_into(&self, span: &mut Span) {
        self.set_summary_attrs(span);
        for o in &self.outcomes {
            Self::emit_outcome(span, o, false);
        }
    }

    /// Digest-mode variant of [`FaultedRound::trace_into`] (see
    /// [`DigestConfig`]): the same summary totals plus `digest: true`
    /// on `span` itself, one `cohort_digest` child carrying streaming
    /// aggregates over every outcome (counts, energy/slack/wasted sums
    /// and extrema, compact histograms, the latest release time), and
    /// the full per-device children — `device_activity` plus its
    /// `fault` / `retry` / `abort` markers — only for the exemplar
    /// devices picked by `cfg`.
    pub fn trace_digest_into(&self, span: &mut Span, cfg: DigestConfig) {
        self.set_summary_attrs(span);
        span.set("digest", true);
        let exemplars = sample_exemplars(self.outcomes.len(), cfg);
        {
            let mut energy_hist = Histogram::new();
            let mut slack_hist = Histogram::new();
            let mut energy_min = f64::INFINITY;
            let mut energy_max = f64::NEG_INFINITY;
            let mut slack_min = f64::INFINITY;
            let mut slack_max = f64::NEG_INFINITY;
            let mut release_max = Seconds::ZERO;
            for o in &self.outcomes {
                let energy = o.total_energy().get();
                let slack = o.slack().get();
                energy_hist.record(energy);
                slack_hist.record(slack);
                energy_min = energy_min.min(energy);
                energy_max = energy_max.max(energy);
                slack_min = slack_min.min(slack);
                slack_max = slack_max.max(slack);
                release_max = release_max.max(o.release_time());
            }
            span.child("cohort_digest")
                .with("devices", self.outcomes.len())
                .with("exemplars", exemplars.len())
                .with("uploads", self.uploaded_count())
                .with("delivered", self.delivered_count())
                .with("faults_fired", self.faults_fired())
                .with("energy_sum_j", self.total_energy().get())
                .with("energy_min_j", energy_min)
                .with("energy_max_j", energy_max)
                .with("compute_energy_sum_j", self.compute_energy().get())
                .with("wasted_energy_sum_j", self.wasted_energy().get())
                .with("slack_sum_s", self.total_slack().get())
                .with("slack_min_s", slack_min)
                .with("slack_max_s", slack_max)
                .with("release_max_s", release_max.get())
                .with("energy_hist", energy_hist.encode_compact())
                .with("slack_hist", slack_hist.encode_compact())
                .end();
        }
        for &i in &exemplars {
            Self::emit_outcome(span, &self.outcomes[i], true);
        }
    }

    fn set_summary_attrs(&self, span: &mut Span) {
        span.set("uploads", self.uploaded_count());
        span.set("makespan_s", self.round_time.get());
        span.set("slack_total_s", self.total_slack().get());
        span.set("energy_j", self.total_energy().get());
        span.set("compute_energy_j", self.compute_energy().get());
        span.set("wasted_energy_j", self.wasted_energy().get());
        span.set("selected", self.outcomes.len());
        span.set("delivered", self.delivered_count());
        span.set("fault_fired", self.faults_fired() > 0 || self.deadline_fired);
        if let Some(t) = self.deadline {
            span.set("deadline_s", t.get());
        }
        span.set("deadline_fired", self.deadline_fired);
    }

    fn emit_outcome(span: &mut Span, o: &DeviceOutcome, exemplar: bool) {
        {
            let mut act = span
                .child("device_activity")
                .with("device", o.device.to_string())
                .with("device_id", o.device.0)
                .with("f_hz", o.frequency.get())
                .with("f_planned_hz", o.planned_frequency.get())
                .with("f_max_hz", o.f_max.get())
                .with("planned_compute_finish_s", o.planned_compute_finish.get())
                .with("planned_upload_s", o.planned_upload.get())
                .with("compute_finish_s", o.compute_finish.get())
                .with("upload_start_s", o.upload_start.get())
                .with("upload_end_s", o.upload_end.get())
                .with("compute_energy_j", o.compute_energy.get())
                .with("compute_energy_at_max_j", o.compute_energy_at_max.get())
                .with("upload_energy_j", o.upload_energy.get())
                .with("wasted_energy_j", o.wasted_energy.get())
                .with("uploaded", o.uploaded)
                .with("delivered", o.delivered)
                .with("retries", o.retries);
            if exemplar {
                act.set("exemplar", true);
            }
            if let Some(fault) = o.fault {
                act.set("fault", fault.kind());
            }
            act.end();
        }
        if let Some(fault) = o.fault {
            span.child("fault")
                .with("device", o.device.to_string())
                .with("kind", fault.kind())
                .end();
        }
        if o.retries > 0 {
            let backoff = match o.fault {
                Some(DeviceFault::UploadRetry { backoff, .. }) => backoff.get(),
                _ => 0.0,
            };
            span.child("retry")
                .with("device", o.device.to_string())
                .with("failed_attempts", o.retries)
                .with("backoff_s", backoff)
                .end();
        }
        if let Some(reason) = o.abort {
            span.child("abort")
                .with("device", o.device.to_string())
                .with("reason", reason.label())
                .end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Uplink;
    use crate::cpu::DvfsCpu;
    use crate::timeline::RoundTimeline;
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

    fn fleet() -> (Vec<Device>, Vec<Hertz>) {
        let devs = vec![
            device(0, 2.0, 500, 8.0),
            device(1, 0.5, 500, 8.0),
            device(2, 2.0, 600, 4.0),
        ];
        let freqs = devs.iter().map(|d| d.cpu().range().max()).collect();
        (devs, freqs)
    }

    #[test]
    fn zero_faults_reproduce_the_healthy_timeline_bitwise() {
        let (devs, freqs) = fleet();
        let healthy = RoundTimeline::simulate(&devs, &freqs, payload()).unwrap();
        let faulted =
            FaultedRound::simulate(&devs, &freqs, payload(), &[None, None, None], None).unwrap();
        assert_eq!(faulted.outcomes().len(), healthy.activities().len());
        for (o, a) in faulted.outcomes().iter().zip(healthy.activities()) {
            assert_eq!(o.device, a.device);
            assert_eq!(o.frequency.get().to_bits(), a.frequency.get().to_bits());
            assert_eq!(o.compute_finish.get().to_bits(), a.compute_finish.get().to_bits());
            assert_eq!(o.upload_start.get().to_bits(), a.upload_start.get().to_bits());
            assert_eq!(o.upload_end.get().to_bits(), a.upload_end.get().to_bits());
            assert_eq!(o.compute_energy.get().to_bits(), a.compute_energy.get().to_bits());
            assert_eq!(o.upload_energy.get().to_bits(), a.upload_energy.get().to_bits());
            assert!(o.delivered && o.uploaded);
            assert_eq!(o.wasted_energy, Joules::ZERO);
        }
        assert_eq!(faulted.round_time().get().to_bits(), healthy.makespan().get().to_bits());
        assert_eq!(faulted.eq10_bound().get().to_bits(), healthy.eq10_bound().get().to_bits());
        assert_eq!(faulted.total_energy().get().to_bits(), healthy.total_energy().get().to_bits());
        assert_eq!(faulted.total_slack().get().to_bits(), healthy.total_slack().get().to_bits());
        assert!(!faulted.deadline_fired());
        assert_eq!(faulted.wasted_energy(), Joules::ZERO);
    }

    #[test]
    fn crash_compute_wastes_partial_energy_and_never_uploads() {
        let (devs, freqs) = fleet();
        let faults = [Some(DeviceFault::CrashCompute { at: 0.5 }), None, None];
        let r = FaultedRound::simulate(&devs, &freqs, payload(), &faults, None).unwrap();
        let o = r.outcome(DeviceId(0)).unwrap();
        assert!(!o.uploaded && !o.delivered);
        assert_eq!(o.abort, Some(AbortReason::CrashCompute));
        let full = devs[0].compute_energy(freqs[0]).unwrap();
        assert!((o.compute_energy.get() - 0.5 * full.get()).abs() < 1e-12);
        assert_eq!(o.upload_energy, Joules::ZERO);
        assert_eq!(o.wasted_energy, o.compute_energy);
        assert_eq!(r.delivered_count(), 2);
        assert_eq!(r.uploaded_count(), 2);
        assert_eq!(r.faults_fired(), 1);
    }

    #[test]
    fn straggler_slows_compute_below_fmin_and_reprices_energy() {
        let (devs, freqs) = fleet();
        // 0.1 × 2 GHz = 0.2 GHz < f_min = 0.3 GHz: legal for physics,
        // illegal for the governor.
        let faults = [Some(DeviceFault::Straggler { slowdown: 0.1 }), None, None];
        let r = FaultedRound::simulate(&devs, &freqs, payload(), &faults, None).unwrap();
        let o = r.outcome(DeviceId(0)).unwrap();
        assert!(o.frequency < devs[0].cpu().range().min());
        assert!(o.compute_finish > o.planned_compute_finish);
        assert!((o.compute_finish.get() - o.planned_compute_finish.get() / 0.1).abs() < 1e-9);
        let expected = devs[0].cpu().compute_energy_unchecked(devs[0].work(), o.frequency);
        assert_eq!(o.compute_energy.get().to_bits(), expected.get().to_bits());
        // Delivered late, but delivered.
        assert!(o.delivered);
        assert_eq!(o.wasted_energy, Joules::ZERO);
    }

    #[test]
    fn upload_retries_stretch_occupation_and_waste_failed_attempts() {
        let (devs, freqs) = fleet();
        let fault = DeviceFault::UploadRetry {
            failed_attempts: 2,
            backoff: Seconds::new(1.0),
            exhausted: false,
        };
        let r = FaultedRound::simulate(&devs, &freqs, payload(), &[Some(fault), None, None], None)
            .unwrap();
        let o = r.outcome(DeviceId(0)).unwrap();
        let d = devs[0].upload_delay(payload()).get();
        // 2 failures with back-off, then the success: 3d + 2b.
        assert!(((o.upload_end - o.upload_start).get() - (3.0 * d + 2.0)).abs() < 1e-9);
        let per_attempt = devs[0].upload_energy(payload());
        assert!((o.upload_energy.get() - 3.0 * per_attempt.get()).abs() < 1e-9);
        assert!((o.wasted_energy.get() - 2.0 * per_attempt.get()).abs() < 1e-9);
        assert!(o.delivered);
        assert_eq!(o.retries, 2);
    }

    #[test]
    fn exhausted_retries_abort_and_waste_everything() {
        let (devs, freqs) = fleet();
        let fault = DeviceFault::UploadRetry {
            failed_attempts: 3,
            backoff: Seconds::new(0.5),
            exhausted: true,
        };
        let r = FaultedRound::simulate(&devs, &freqs, payload(), &[Some(fault), None, None], None)
            .unwrap();
        let o = r.outcome(DeviceId(0)).unwrap();
        let d = devs[0].upload_delay(payload()).get();
        // 3 failures, back-off only between them: 3d + 2b.
        assert!(((o.upload_end - o.upload_start).get() - (3.0 * d + 1.0)).abs() < 1e-9);
        assert!(!o.delivered && o.uploaded);
        assert_eq!(o.abort, Some(AbortReason::RetriesExhausted));
        assert_eq!(o.wasted_energy.get().to_bits(), o.total_energy().get().to_bits());
    }

    #[test]
    fn channel_degradation_stretches_and_reprices_the_upload() {
        let (devs, freqs) = fleet();
        let fault = DeviceFault::ChannelDegradation { gain: 0.5 };
        let r = FaultedRound::simulate(&devs, &freqs, payload(), &[Some(fault), None, None], None)
            .unwrap();
        let o = r.outcome(DeviceId(0)).unwrap();
        let d = devs[0].upload_delay(payload()).get();
        assert!(((o.upload_end - o.upload_start).get() - 2.0 * d).abs() < 1e-9);
        let nominal = devs[0].upload_energy(payload());
        assert!((o.upload_energy.get() - 2.0 * nominal.get()).abs() < 1e-9);
        assert!(o.delivered);
        assert_eq!(o.wasted_energy, Joules::ZERO);
    }

    #[test]
    fn crash_upload_frees_the_channel_early_and_wastes_all_energy() {
        let (devs, freqs) = fleet();
        let fault = DeviceFault::CrashUpload { at: 0.25 };
        let r = FaultedRound::simulate(&devs, &freqs, payload(), &[Some(fault), None, None], None)
            .unwrap();
        let o = r.outcome(DeviceId(0)).unwrap();
        let d = devs[0].upload_delay(payload()).get();
        assert!(((o.upload_end - o.upload_start).get() - 0.25 * d).abs() < 1e-9);
        assert!(o.uploaded && !o.delivered);
        assert_eq!(o.abort, Some(AbortReason::CrashUpload));
        assert_eq!(o.wasted_energy.get().to_bits(), o.total_energy().get().to_bits());
    }

    #[test]
    fn deadline_drops_late_uploads_and_prorates_their_energy() {
        let (devs, freqs) = fleet();
        // Healthy round: device 1 computes 10 s then uploads 5 s.
        // A 9 s deadline cuts it mid-compute.
        let deadline = Some(Seconds::new(9.0));
        let r = FaultedRound::simulate(&devs, &freqs, payload(), &[None, None, None], deadline)
            .unwrap();
        assert!(r.deadline_fired());
        assert_eq!(r.round_time(), Seconds::new(9.0));
        let slow = r.outcome(DeviceId(1)).unwrap();
        assert!(!slow.delivered);
        assert_eq!(slow.abort, Some(AbortReason::DeadlineExceeded));
        let full = devs[1].compute_energy(freqs[1]).unwrap();
        assert!((slow.compute_energy.get() - 0.9 * full.get()).abs() < 1e-12);
        // Its upload never started before t = 9 → zero upload spend.
        assert_eq!(slow.upload_energy, Joules::ZERO);
        assert_eq!(slow.wasted_energy.get().to_bits(), slow.total_energy().get().to_bits());
        // On-time devices are untouched.
        let fast = r.outcome(DeviceId(0)).unwrap();
        assert!(fast.delivered);
        assert_eq!(fast.wasted_energy, Joules::ZERO);
    }

    #[test]
    fn repeated_id_resolves_each_entry_to_itself() {
        // One id twice: a crash-upload at 1 GHz and a healthy entry at
        // 2 GHz. Each outcome carries its own entry's fault, frequency
        // and delivery.
        let devs = [device(3, 2.0, 500, 8.0), device(3, 2.0, 500, 8.0)];
        let freqs = [Hertz::from_ghz(1.0), Hertz::from_ghz(2.0)];
        let faults = [Some(DeviceFault::CrashUpload { at: 0.5 }), None];
        let r = FaultedRound::simulate(&devs, &freqs, payload(), &faults, None).unwrap();
        let [healthy, crashed] = r.outcomes() else { panic!("two outcomes") };
        assert_eq!((healthy.input, crashed.input), (1, 0));
        assert_eq!(healthy.frequency, Hertz::from_ghz(2.0));
        assert!(healthy.delivered && healthy.fault.is_none());
        assert_eq!(crashed.frequency, Hertz::from_ghz(1.0));
        assert_eq!(crashed.abort, Some(AbortReason::CrashUpload));
        for o in r.outcomes() {
            assert_eq!(o.compute_finish, devs[0].compute_delay(o.frequency).unwrap());
            assert_eq!(o.compute_energy, devs[0].compute_energy(o.frequency).unwrap());
        }
        assert_eq!(r.delivery_by_input(), vec![false, true]);
    }

    #[test]
    fn invalid_fault_parameters_are_rejected() {
        let (devs, freqs) = fleet();
        let bad = [
            DeviceFault::CrashCompute { at: 0.0 },
            DeviceFault::CrashUpload { at: 1.0 },
            DeviceFault::Straggler { slowdown: 1.0 },
            DeviceFault::UploadRetry {
                failed_attempts: 0,
                backoff: Seconds::ZERO,
                exhausted: false,
            },
            DeviceFault::ChannelDegradation { gain: 0.0 },
        ];
        for fault in bad {
            let faults = [Some(fault), None, None];
            assert!(
                FaultedRound::simulate(&devs, &freqs, payload(), &faults, None).is_err(),
                "{fault:?} should be rejected"
            );
        }
    }

    #[test]
    fn metrics_and_trace_report_fault_series() {
        use helcfl_telemetry::{analyze::Trace, MemorySink, Telemetry};
        let (devs, freqs) = fleet();
        let faults = [
            Some(DeviceFault::CrashCompute { at: 0.5 }),
            None,
            Some(DeviceFault::UploadRetry {
                failed_attempts: 1,
                backoff: Seconds::new(0.5),
                exhausted: false,
            }),
        ];
        let r = FaultedRound::simulate(&devs, &freqs, payload(), &faults, None).unwrap();
        let mut registry = MetricsRegistry::new();
        r.record_metrics(&mut registry);
        assert_eq!(registry.counter("tdma.uploads"), 2);
        assert_eq!(registry.counter("faults.fired"), 2);
        assert_eq!(registry.counter("round.delivered"), 2);

        let sink = MemorySink::new();
        let tele = Telemetry::with_sink(sink.clone());
        {
            let mut span = tele.span("timeline");
            r.trace_into(&mut span);
        }
        let trace = Trace::parse(&sink.lines().join("\n")).unwrap();
        let timeline = trace.spans.iter().find(|s| s.name == "timeline").unwrap();
        assert_eq!(timeline.attr_bool("fault_fired"), Some(true));
        assert_eq!(timeline.attr_u64("delivered"), Some(2));
        assert_eq!(timeline.attr_u64("selected"), Some(3));
        assert_eq!(trace.spans.iter().filter(|s| s.name == "fault").count(), 2);
        assert_eq!(trace.spans.iter().filter(|s| s.name == "retry").count(), 1);
        assert_eq!(trace.spans.iter().filter(|s| s.name == "abort").count(), 1);
        let crashed = trace
            .spans
            .iter()
            .find(|s| s.name == "device_activity" && s.attr_u64("device_id") == Some(0))
            .unwrap();
        assert_eq!(crashed.attr_bool("uploaded"), Some(false));
        assert_eq!(crashed.attr_str("fault"), Some("crash-compute"));
    }

    #[test]
    fn trace_digest_into_reconciles_with_the_full_trace() {
        use helcfl_telemetry::{analyze::Trace, MemorySink, Telemetry};
        let (devs, freqs) = fleet();
        let faults = [
            Some(DeviceFault::CrashCompute { at: 0.5 }),
            None,
            Some(DeviceFault::UploadRetry {
                failed_attempts: 1,
                backoff: Seconds::new(0.5),
                exhausted: false,
            }),
        ];
        let r = FaultedRound::simulate(&devs, &freqs, payload(), &faults, None).unwrap();
        let sink = MemorySink::new();
        let tele = Telemetry::with_sink(sink.clone());
        {
            let mut span = tele.span("timeline");
            r.trace_digest_into(&mut span, DigestConfig { exemplars: 1, seed: 11 });
        }
        let trace = Trace::parse(&sink.lines().join("\n")).unwrap();

        // Summary attrs match the full-fidelity ones; digest flag set.
        let timeline = trace.spans.iter().find(|s| s.name == "timeline").unwrap();
        assert_eq!(timeline.attr_bool("digest"), Some(true));
        assert_eq!(timeline.attr_u64("selected"), Some(3));
        assert_eq!(timeline.attr_u64("delivered"), Some(2));

        // The digest carries totals that agree with the round itself.
        let digest = trace.spans.iter().find(|s| s.name == "cohort_digest").unwrap();
        assert_eq!(digest.attr_u64("devices"), Some(3));
        assert_eq!(digest.attr_u64("uploads"), Some(2));
        assert_eq!(digest.attr_u64("delivered"), Some(2));
        assert_eq!(digest.attr_u64("faults_fired"), Some(2));
        assert_eq!(digest.attr_f64("energy_sum_j"), Some(r.total_energy().get()));
        assert_eq!(
            digest.attr_f64("wasted_energy_sum_j"),
            Some(r.wasted_energy().get())
        );
        assert_eq!(digest.attr_f64("slack_sum_s"), Some(r.total_slack().get()));
        let release_max = r
            .outcomes()
            .iter()
            .map(|o| o.release_time())
            .fold(Seconds::ZERO, Seconds::max);
        assert_eq!(digest.attr_f64("release_max_s"), Some(release_max.get()));
        let energy_hist =
            Histogram::decode_compact(digest.attr_str("energy_hist").unwrap()).unwrap();
        assert_eq!(energy_hist.count, 3);

        // Exactly one exemplar, fully attributed; its markers (if any)
        // are the only fault/retry/abort children in the digest trace.
        let activities: Vec<_> =
            trace.spans.iter().filter(|s| s.name == "device_activity").collect();
        assert_eq!(activities.len(), 1);
        let a = activities[0];
        assert_eq!(a.attr_bool("exemplar"), Some(true));
        let id = a.attr_u64("device_id").unwrap() as usize;
        let o = r.outcome(DeviceId(id)).unwrap();
        assert_eq!(a.attr_bool("delivered"), Some(o.delivered));
        assert_eq!(a.attr_f64("wasted_energy_j"), Some(o.wasted_energy.get()));
        let marker_count = |name: &str| trace.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(marker_count("fault"), usize::from(o.fault.is_some()));
        assert_eq!(marker_count("retry"), usize::from(o.retries > 0));
        assert_eq!(marker_count("abort"), usize::from(o.abort.is_some()));
    }
}

//! Deterministic fault injection and the round-degradation policy.
//!
//! [`FaultPlan`] turns per-class fault *rates* into concrete
//! [`DeviceFault`] events using one dedicated [`detrand::Rng::stream`]
//! per `(round, device)` pair under [`SeedDomain::Faults`]. Because
//! the stream key depends only on the round index and device id, the
//! event a device suffers is independent of thread count, selection
//! order, and which other devices were selected — faulted histories
//! stay bit-identical across worker pools, like everything else in
//! the workspace.
//!
//! [`DegradationPolicy`] tells the runner what to do when faults (or
//! a round deadline) strand selected devices: how many delivered
//! updates are enough to aggregate, and whether a selected-but-failed
//! user still pays its Eq. 20 appearance charge `α_q`.

use detrand::Rng;
use mec_sim::device::DeviceId;
use mec_sim::units::Seconds;

pub use mec_sim::faults::{AbortReason, DeviceFault, DeviceOutcome, FaultedRound};

use crate::error::{FlError, Result};
use crate::seeds::{derive, SeedDomain};

/// Per-class fault rates and shape parameters.
///
/// All rates are per-round, per-selected-device probabilities. The
/// default is the all-zero plan: no fault ever fires, and the runner's
/// rounds resolve to the fault-free TDMA timeline bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a selected device crashes this round (split evenly
    /// between mid-compute and mid-upload crashes).
    pub crash_rate: f64,
    /// Probability a device straggles (runs below its assigned `f`).
    pub straggler_rate: f64,
    /// Worst-case straggler frequency factor: effective slow-down is
    /// drawn uniformly from `[straggler_slowdown, 1)`.
    pub straggler_slowdown: f64,
    /// Per-attempt upload failure probability (drives the geometric
    /// retry count).
    pub upload_failure_rate: f64,
    /// Retry budget: after `max_retries` failed attempts the device
    /// gives up and its update is lost.
    pub max_retries: u32,
    /// Idle back-off after each failed upload attempt.
    pub retry_backoff: Seconds,
    /// Probability the device's channel gain degrades this round.
    pub channel_degradation_rate: f64,
    /// Worst-case gain factor: the effective rate factor is drawn
    /// uniformly from `[channel_gain, 1)`.
    pub channel_gain: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            crash_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 0.25,
            upload_failure_rate: 0.0,
            max_retries: 2,
            retry_backoff: Seconds::new(0.5),
            channel_degradation_rate: 0.0,
            channel_gain: 0.5,
        }
    }
}

impl FaultConfig {
    /// The all-zero plan: no fault ever fires.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan where each of the four event classes fires independently
    /// at `rate` — the knob the fault-sweep benchmark turns.
    pub fn uniform(rate: f64) -> Self {
        Self {
            crash_rate: rate,
            straggler_rate: rate,
            upload_failure_rate: rate,
            channel_degradation_rate: rate,
            ..Self::default()
        }
    }

    /// Whether any fault class can fire at all. An inactive config
    /// samples no fault for any device, so a run without a round
    /// deadline reproduces the fault-free histories the determinism
    /// suite pins bit for bit.
    pub fn is_active(&self) -> bool {
        self.crash_rate > 0.0
            || self.straggler_rate > 0.0
            || self.upload_failure_rate > 0.0
            || self.channel_degradation_rate > 0.0
    }

    /// Validates all rates and shape parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        let rate = |field: &'static str, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(FlError::InvalidConfig {
                    field,
                    reason: format!("must be a probability in [0, 1], got {v}"),
                })
            }
        };
        rate("faults.crash_rate", self.crash_rate)?;
        rate("faults.straggler_rate", self.straggler_rate)?;
        rate("faults.upload_failure_rate", self.upload_failure_rate)?;
        rate("faults.channel_degradation_rate", self.channel_degradation_rate)?;
        let factor = |field: &'static str, v: f64| {
            if v > 0.0 && v < 1.0 {
                Ok(())
            } else {
                Err(FlError::InvalidConfig {
                    field,
                    reason: format!("must lie strictly in (0, 1), got {v}"),
                })
            }
        };
        factor("faults.straggler_slowdown", self.straggler_slowdown)?;
        factor("faults.channel_gain", self.channel_gain)?;
        if !(self.retry_backoff.get() >= 0.0 && self.retry_backoff.is_finite()) {
            return Err(FlError::InvalidConfig {
                field: "faults.retry_backoff",
                reason: format!("must be finite and >= 0, got {}", self.retry_backoff.get()),
            });
        }
        Ok(())
    }
}

/// A seeded, deterministic fault plan for a whole training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
    seed: u64,
}

impl FaultPlan {
    /// Builds a plan from `config`, deriving its dedicated seed from
    /// the run's `master` seed under [`SeedDomain::Faults`].
    ///
    /// # Errors
    ///
    /// Propagates [`FaultConfig::validate`] failures.
    pub fn new(config: FaultConfig, master: u64) -> Result<Self> {
        config.validate()?;
        Ok(Self { config, seed: derive(master, SeedDomain::Faults) })
    }

    /// The inert plan: no fault ever fires, any master seed.
    pub fn none() -> Self {
        Self { config: FaultConfig::none(), seed: 0 }
    }

    /// The plan's configuration.
    #[inline]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Whether any fault class can fire at all.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.config.is_active()
    }

    /// Draws the fault (if any) afflicting `device` in `round`.
    ///
    /// Each `(round, device)` pair owns a private RNG stream, so the
    /// draw is a pure function of `(master seed, round, device)` —
    /// scheduling, thread count, and co-selected devices cannot
    /// perturb it. At most one fault fires per device per round, with
    /// precedence crash > straggler > channel degradation > upload
    /// retry.
    pub fn sample(&self, round: usize, device: DeviceId) -> Option<DeviceFault> {
        let c = &self.config;
        if !c.is_active() {
            return None;
        }
        let mut rng = Rng::stream(self.seed, ((round as u64) << 32) | device.0 as u64);
        if rng.next_f64() < c.crash_rate {
            // Crash point clear of both endpoints so partial energy is
            // always a strict fraction of the full cost.
            let at = 0.05 + 0.9 * rng.next_f64();
            return Some(if rng.next_f64() < 0.5 {
                DeviceFault::CrashCompute { at }
            } else {
                DeviceFault::CrashUpload { at }
            });
        }
        if rng.next_f64() < c.straggler_rate {
            return Some(DeviceFault::Straggler {
                slowdown: rng.uniform(c.straggler_slowdown, 1.0),
            });
        }
        if rng.next_f64() < c.channel_degradation_rate {
            return Some(DeviceFault::ChannelDegradation {
                gain: rng.uniform(c.channel_gain, 1.0),
            });
        }
        if c.upload_failure_rate > 0.0 {
            let mut failed = 0u32;
            while failed <= c.max_retries && rng.next_f64() < c.upload_failure_rate {
                failed += 1;
            }
            if failed == 0 {
                return None;
            }
            return Some(DeviceFault::UploadRetry {
                failed_attempts: failed,
                backoff: c.retry_backoff,
                exhausted: failed > c.max_retries,
            });
        }
        None
    }
}

/// What the runner does when selected devices fail to deliver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Round deadline `T_max`: updates landing later are dropped and
    /// the round is cut at the deadline. `None` waits for everyone
    /// (the paper's pure synchronous discipline).
    pub round_deadline: Option<Seconds>,
    /// Minimum delivered updates required to aggregate; a round below
    /// quorum is skipped (no model change, time and energy still
    /// spent).
    pub min_quorum: usize,
    /// Whether a selected-but-failed user still pays its Eq. 20
    /// appearance charge `α_q`. `true` (charge) keeps selection
    /// history faithful to *intent*; `false` (refund) keeps it
    /// faithful to *delivery*, restoring the failed user's long-run
    /// selection priority.
    pub charge_failed_selections: bool,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        Self { round_deadline: None, min_quorum: 1, charge_failed_selections: true }
    }
}

impl DegradationPolicy {
    /// Whether this policy can drop a device with an inert fault plan:
    /// a round deadline strands late uploads all by itself. Every round
    /// runs through the same engine either way.
    pub fn is_active(&self) -> bool {
        self.round_deadline.is_some()
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if let Some(t) = self.round_deadline {
            if !(t.get() > 0.0 && t.is_finite()) {
                return Err(FlError::InvalidConfig {
                    field: "degradation.round_deadline",
                    reason: format!("must be finite and > 0, got {}", t.get()),
                });
            }
        }
        if self.min_quorum == 0 {
            return Err(FlError::InvalidConfig {
                field: "degradation.min_quorum",
                reason: "must be at least 1".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_config() -> FaultConfig {
        FaultConfig {
            crash_rate: 0.1,
            straggler_rate: 0.15,
            upload_failure_rate: 0.2,
            channel_degradation_rate: 0.1,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for round in 0..50 {
            for dev in 0..20 {
                assert_eq!(plan.sample(round, DeviceId(dev)), None);
            }
        }
    }

    #[test]
    fn sampling_is_a_pure_function_of_round_and_device() {
        let plan = FaultPlan::new(active_config(), 42).unwrap();
        for round in 0..20 {
            for dev in 0..10 {
                assert_eq!(
                    plan.sample(round, DeviceId(dev)),
                    plan.sample(round, DeviceId(dev)),
                );
            }
        }
    }

    #[test]
    fn different_seeds_draw_different_plans() {
        let a = FaultPlan::new(active_config(), 1).unwrap();
        let b = FaultPlan::new(active_config(), 2).unwrap();
        let pattern = |p: &FaultPlan| {
            (0..200)
                .map(|i| p.sample(i / 10, DeviceId(i % 10)).map(|f| f.kind()))
                .collect::<Vec<_>>()
        };
        assert_ne!(pattern(&a), pattern(&b));
    }

    #[test]
    fn rates_shape_the_event_mix() {
        let plan = FaultPlan::new(active_config(), 7).unwrap();
        let mut fired = 0usize;
        let mut kinds = std::collections::BTreeSet::new();
        let trials = 4000;
        for i in 0..trials {
            if let Some(f) = plan.sample(i / 40, DeviceId(i % 40)) {
                fired += 1;
                kinds.insert(f.kind());
            }
        }
        let rate = fired as f64 / trials as f64;
        // Union of the classes is ≈ 1 - (0.9·0.85·0.9·0.8) ≈ 0.45.
        assert!(rate > 0.3 && rate < 0.6, "observed fault rate {rate}");
        assert!(kinds.contains("crash-compute"));
        assert!(kinds.contains("crash-upload"));
        assert!(kinds.contains("straggler"));
        assert!(kinds.contains("channel-degradation"));
        assert!(kinds.contains("upload-retry"));
    }

    #[test]
    fn sampled_faults_always_pass_event_validation() {
        // Every sampled event must be accepted by the MEC layer; run a
        // retry-heavy config so exhausted retries appear too.
        let config = FaultConfig {
            upload_failure_rate: 0.7,
            max_retries: 1,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(config, 3).unwrap();
        let mut saw_exhausted = false;
        for i in 0..500 {
            if let Some(f) = plan.sample(i / 10, DeviceId(i % 10)) {
                match f {
                    DeviceFault::UploadRetry { failed_attempts, exhausted, .. } => {
                        assert!(failed_attempts >= 1);
                        if exhausted {
                            assert_eq!(failed_attempts, config.max_retries + 1);
                            saw_exhausted = true;
                        } else {
                            assert!(failed_attempts <= config.max_retries);
                        }
                    }
                    DeviceFault::CrashCompute { at } | DeviceFault::CrashUpload { at } => {
                        assert!(at > 0.0 && at < 1.0);
                    }
                    DeviceFault::Straggler { slowdown } => {
                        assert!((0.25..1.0).contains(&slowdown));
                    }
                    DeviceFault::ChannelDegradation { gain } => {
                        assert!((0.5..1.0).contains(&gain));
                    }
                }
            }
        }
        assert!(saw_exhausted, "retry-heavy config should exhaust the budget sometimes");
    }

    #[test]
    fn invalid_config_names_the_offending_field() {
        let cases = [
            (FaultConfig { crash_rate: 1.5, ..FaultConfig::default() }, "faults.crash_rate"),
            (
                FaultConfig { straggler_slowdown: 0.0, ..FaultConfig::default() },
                "faults.straggler_slowdown",
            ),
            (FaultConfig { channel_gain: 1.0, ..FaultConfig::default() }, "faults.channel_gain"),
            (
                FaultConfig { retry_backoff: Seconds::new(-1.0), ..FaultConfig::default() },
                "faults.retry_backoff",
            ),
        ];
        for (config, field) in cases {
            match FaultPlan::new(config, 0) {
                Err(FlError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected InvalidConfig for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn degradation_policy_validates_its_fields() {
        assert!(DegradationPolicy::default().validate().is_ok());
        let bad = DegradationPolicy { min_quorum: 0, ..DegradationPolicy::default() };
        assert!(matches!(
            bad.validate(),
            Err(FlError::InvalidConfig { field: "degradation.min_quorum", .. })
        ));
        let bad =
            DegradationPolicy { round_deadline: Some(Seconds::ZERO), ..DegradationPolicy::default() };
        assert!(bad.validate().is_err());
        assert!(!DegradationPolicy::default().is_active());
        assert!(DegradationPolicy {
            round_deadline: Some(Seconds::new(10.0)),
            ..DegradationPolicy::default()
        }
        .is_active());
    }
}

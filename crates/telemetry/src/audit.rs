//! Theory-invariant audit: replay a trace against the analytic model.
//!
//! The HELCFL schedule comes with guarantees that hold by construction
//! *inside* the simulator — Alg. 3's DVFS never extends the round
//! (delay-neutrality), slack is non-negative by definition, TDMA
//! serializes uploads, and `E^cal ∝ f²` means down-scaling only saves
//! energy. Delay-neutrality is a *per-policy* contract: the traced
//! runner stamps each round's `timeline` span with the frequency
//! policy's `delay_neutral` claim, and only claiming rounds are held
//! to the bound (FEDL's closed-form optimum deliberately trades round
//! delay for energy). This module re-derives each guarantee from
//! nothing but the emitted trace: the per-device attributes on `device_activity` spans
//! (see `FaultedRound::trace_into` in `mec-sim`) are replayed through
//! an independent reimplementation of the TDMA queue, and the final
//! metrics line is cross-checked against the span stream. A violation
//! therefore means either the simulator or its telemetry broke — the
//! closed loop the observability layer exists for.
//!
//! # Fault-era traces
//!
//! Traces from the fault-aware round engine (`FaultedRound`, which
//! traces every round) extend the device spans with
//! planned-vs-effective attributes (`f_planned_hz`,
//! `planned_compute_finish_s`, `planned_upload_s`), delivery flags
//! (`uploaded`, `delivered`, `retries`), `wasted_energy_j`, and a
//! `fault` kind; the timeline span gains `fault_fired`,
//! `deadline_s`/`deadline_fired`, and `selected`/`delivered` counts.
//! The auditor reads this one schema, through
//! [`TraceSpan::require`] and [`TraceSpan::optional`]: an audited
//! round without its `index`, or a device span, cohort digest, timeline
//! or quorum span without one of the attributes its producer always
//! writes, is refused with the span and attribute named, and so is any
//! attribute of the wrong type. Only `deadline_s`, `digest`,
//! `delay_neutral` and a device's `fault` may be absent.
//!
//! On faulted rounds the contract shifts: slack and TDMA serialization
//! apply only to devices that actually transmitted, the `E ∝ f²`
//! equality applies only to undisturbed deliveries (faulted energies
//! must merely stay under the at-`f_max` reference), wasted joules must
//! reconcile with delivery outcomes, and delay-neutrality is checked
//! **at plan time** — the DVFS assignment must have been sound before
//! the fault hit; the degraded actual makespan is exempt.
//!
//! Like [`crate::analyze`], everything here is a read-only consumer of
//! a finished trace; auditing cannot perturb a run.

use std::fmt;

use crate::analyze::{SpanTree, Trace, TraceSpan};
use crate::metrics::{Histogram, Metric};

/// Tolerances for the floating-point comparisons.
///
/// The replayed quantities (`compute_finish · f / f_max`, TDMA queue
/// arithmetic) repeat the simulator's own `f64` operations in a
/// different association order, so exact equality is not available;
/// the defaults absorb a few ulps of drift while staying far below
/// any physically meaningful difference.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Relative tolerance for approximate comparisons.
    pub rel_tol: f64,
    /// Absolute tolerance floor (guards comparisons near zero).
    pub abs_tol: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self { rel_tol: 1e-6, abs_tol: 1e-9 }
    }
}

impl AuditConfig {
    /// `a ≈ b` under this config.
    fn close(&self, a: f64, b: f64) -> bool {
        (a - b).abs() <= self.abs_tol + self.rel_tol * a.abs().max(b.abs())
    }

    /// `a ≤ b` up to tolerance.
    fn le(&self, a: f64, b: f64) -> bool {
        a <= b + self.abs_tol + self.rel_tol * a.abs().max(b.abs())
    }
}

/// One broken invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable invariant name (`"slack-nonnegative"`, …).
    pub invariant: &'static str,
    /// The `index` attribute of the offending round span, when the
    /// violation is round-scoped.
    pub round: Option<u64>,
    /// The offending span id, when one exists.
    pub span: Option<u64>,
    /// Human-readable specifics (device, values, bounds).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.invariant)?;
        if let Some(round) = self.round {
            write!(f, " round {round}")?;
        }
        if let Some(span) = self.span {
            write!(f, " (span {span})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Outcome of an audit run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// `round` spans seen in the trace.
    pub rounds: usize,
    /// Rounds that carried auditable device activity.
    pub rounds_audited: usize,
    /// Audited rounds whose `timeline` span claimed delay-neutrality
    /// (`delay_neutral:true`) and were therefore held to the
    /// all-at-`f_max` makespan bound.
    pub rounds_delay_neutral: usize,
    /// Audited rounds where a fault fired (a device-level fault event,
    /// a round deadline cut, or the timeline's `fault_fired` flag).
    pub rounds_faulted: usize,
    /// Faulted rounds that claimed delay-neutrality and were therefore
    /// audited against the *plan-time* TDMA replay instead of the
    /// degraded actual makespan.
    pub rounds_fault_exempt: usize,
    /// Audited rounds traced in digest mode (`cohort_digest` span):
    /// exemplar devices replayed exactly, totals reconciled against the
    /// digest aggregates, full-cohort TDMA replay skipped.
    pub rounds_digest: usize,
    /// Total `device_activity` spans replayed.
    pub devices_audited: usize,
    /// Metrics-line cross-checks performed.
    pub metrics_checked: usize,
    /// `run_manifest` lines seen (0 on pre-manifest traces).
    pub manifests: usize,
    /// Manifests carrying checkpoint lineage (`resumed_from`): runs
    /// whose trace holds only the rounds after their resume point. The
    /// auditor replays whatever rounds are present — lineage changes
    /// nothing about the invariants, only how many rounds there are.
    pub manifests_resumed: usize,
    /// Every invariant violation found.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Multi-line human summary (verdict first, then each violation).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "audit: {} — {} rounds ({} audited, {} delay-neutral, \
             {} faulted, {} plan-time exempt, {} digest), {} device \
             activities, {} metrics checks, {} manifest(s), {} violations",
            if self.passed() { "PASS" } else { "FAIL" },
            self.rounds,
            self.rounds_audited,
            self.rounds_delay_neutral,
            self.rounds_faulted,
            self.rounds_fault_exempt,
            self.rounds_digest,
            self.devices_audited,
            self.metrics_checked,
            self.manifests,
            self.violations.len()
        );
        if self.manifests_resumed > 0 {
            let _ = writeln!(
                out,
                "  {} run(s) resumed from a checkpoint (trace holds only \
                 post-resume rounds)",
                self.manifests_resumed
            );
        }
        for v in &self.violations {
            let _ = writeln!(out, "  {v}");
        }
        out
    }
}

/// One device's activity, decoded from a `device_activity` span.
struct Activity {
    device: String,
    device_id: u64,
    f: f64,
    f_planned: f64,
    f_max: f64,
    compute_finish: f64,
    planned_compute_finish: f64,
    planned_upload: f64,
    upload_start: f64,
    upload_end: f64,
    compute_energy: f64,
    compute_energy_at_max: f64,
    upload_energy: f64,
    wasted_energy: f64,
    uploaded: bool,
    delivered: bool,
    retries: u64,
    fault: Option<String>,
}

impl Activity {
    fn decode(span: &TraceSpan) -> Result<Self, String> {
        Ok(Self {
            device: span.require::<&str>("device")?.to_string(),
            device_id: span.require::<u64>("device_id")?,
            f: span.require::<f64>("f_hz")?,
            f_planned: span.require::<f64>("f_planned_hz")?,
            f_max: span.require::<f64>("f_max_hz")?,
            compute_finish: span.require::<f64>("compute_finish_s")?,
            planned_compute_finish: span.require::<f64>("planned_compute_finish_s")?,
            planned_upload: span.require::<f64>("planned_upload_s")?,
            upload_start: span.require::<f64>("upload_start_s")?,
            upload_end: span.require::<f64>("upload_end_s")?,
            compute_energy: span.require::<f64>("compute_energy_j")?,
            compute_energy_at_max: span.require::<f64>("compute_energy_at_max_j")?,
            upload_energy: span.require::<f64>("upload_energy_j")?,
            wasted_energy: span.require::<f64>("wasted_energy_j")?,
            uploaded: span.require::<bool>("uploaded")?,
            delivered: span.require::<bool>("delivered")?,
            retries: span.require::<u64>("retries")?,
            fault: span.optional::<&str>("fault")?.map(str::to_string),
        })
    }

    /// When the channel releases this device's round contribution: the
    /// upload end when it transmitted, the (possibly truncated)
    /// compute finish when it never reached the channel.
    fn release(&self) -> f64 {
        if self.uploaded {
            self.upload_end
        } else {
            self.compute_finish
        }
    }
}

/// Device counts of one round's cohort, or summed over a trace.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    devices: u64,
    uploads: u64,
    delivered: u64,
    faults: u64,
}

impl Counts {
    fn add(&mut self, other: Counts) {
        self.devices += other.devices;
        self.uploads += other.uploads;
        self.delivered += other.delivered;
        self.faults += other.faults;
    }
}

/// The timeline attributes each round's [`Cohort::sums`] reconcile
/// with, in order.
const TIMELINE_SUMS: [&str; 4] =
    ["energy_j", "compute_energy_j", "wasted_energy_j", "slack_total_s"];

/// What a round shows about its whole cohort: the aggregates of its
/// `cohort_digest` span on a digest round, the sums over its
/// `device_activity` spans otherwise. The fault tally, the stream
/// totals, the natural makespan, the timeline sums and the
/// selected/delivered counts all read this one value.
#[derive(Debug, Clone, Copy)]
struct Cohort {
    counts: Counts,
    /// The last channel release, before the deadline clamp.
    release_max: f64,
    /// Energy, compute energy, wasted energy and slack totals, in
    /// [`TIMELINE_SUMS`] order. Slack only accrues for devices that
    /// reached the channel.
    sums: [f64; 4],
}

impl Cohort {
    fn of_devices(activities: &[(u64, Activity)]) -> Self {
        let count = |keep: fn(&Activity) -> bool| {
            activities.iter().filter(|(_, a)| keep(a)).count() as u64
        };
        Self {
            counts: Counts {
                devices: activities.len() as u64,
                uploads: count(|a| a.uploaded),
                delivered: count(|a| a.delivered),
                faults: count(|a| a.fault.is_some()),
            },
            release_max: activities
                .iter()
                .map(|(_, a)| a.release())
                .fold(f64::NEG_INFINITY, f64::max),
            sums: [
                activities.iter().map(|(_, a)| a.compute_energy + a.upload_energy).sum(),
                activities.iter().map(|(_, a)| a.compute_energy).sum(),
                activities.iter().map(|(_, a)| a.wasted_energy).sum(),
                activities
                    .iter()
                    .filter(|(_, a)| a.uploaded)
                    .map(|(_, a)| a.upload_start - a.compute_finish)
                    .sum(),
            ],
        }
    }
}

/// A digest-mode round's `cohort_digest` span (see
/// `FaultedRound::trace_digest_into` in `mec-sim`): the cohort
/// aggregates plus what bounds the exemplars.
struct Digest {
    span: u64,
    cohort: Cohort,
    exemplars: u64,
    energy_min: f64,
    energy_max: f64,
    slack_min: f64,
    slack_max: f64,
    energy_hist: String,
    slack_hist: String,
}

impl Digest {
    fn decode(span: &TraceSpan) -> Result<Self, String> {
        Ok(Self {
            span: span.id,
            cohort: Cohort {
                counts: Counts {
                    devices: span.require::<u64>("devices")?,
                    uploads: span.require::<u64>("uploads")?,
                    delivered: span.require::<u64>("delivered")?,
                    faults: span.require::<u64>("faults_fired")?,
                },
                release_max: span.require::<f64>("release_max_s")?,
                sums: [
                    span.require::<f64>("energy_sum_j")?,
                    span.require::<f64>("compute_energy_sum_j")?,
                    span.require::<f64>("wasted_energy_sum_j")?,
                    span.require::<f64>("slack_sum_s")?,
                ],
            },
            exemplars: span.require::<u64>("exemplars")?,
            energy_min: span.require::<f64>("energy_min_j")?,
            energy_max: span.require::<f64>("energy_max_j")?,
            slack_min: span.require::<f64>("slack_min_s")?,
            slack_max: span.require::<f64>("slack_max_s")?,
            energy_hist: span.require::<&str>("energy_hist")?.to_string(),
            slack_hist: span.require::<&str>("slack_hist")?.to_string(),
        })
    }
}

/// Replays the TDMA queue over `(compute_finish, upload_duration)`
/// pairs, FIFO by compute finish with device-id tie-break — the same
/// discipline as `mec_sim::faults::FaultedRound` — and returns the
/// resulting makespan.
fn replay_tdma(mut jobs: Vec<(f64, f64, u64)>) -> f64 {
    jobs.sort_by(|a, b| {
        a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.2.cmp(&b.2))
    });
    let mut channel_free = 0.0f64;
    for (finish, duration, _) in jobs {
        channel_free = channel_free.max(finish) + duration;
    }
    channel_free
}

/// Audits every round of `trace` against the model invariants.
///
/// Checks, per round with `device_activity` spans under its `timeline`
/// phase:
///
/// * **slack-nonnegative** — `upload_start ≥ compute_finish` for every
///   device that transmitted (a negative wait would mean the channel
///   ran backwards); devices that crashed before reaching the channel
///   never queued and are exempt;
/// * **frequency-bound** — the DVFS-assigned frequency never exceeds
///   the device's `f_max`, and the *effective* frequency never exceeds
///   the assignment (faults can only slow a device down, never speed
///   it up);
/// * **fault-consistency** — the timeline's `fault_fired` flag matches
///   the device-level evidence (a `fault` attribute or a fired
///   deadline), an unfaulted device's actuals equal its plan, and the
///   timeline/quorum `selected`/`delivered` counts agree with the
///   device spans;
/// * **tdma-serialization** — upload windows of transmitting devices,
///   sorted by start, never overlap, and the recorded makespan is the
///   latest channel release clamped to the round deadline;
/// * **delay-neutrality** — for rounds whose `timeline` span carries
///   `delay_neutral:true` (recorded from
///   `FrequencyPolicy::delay_neutral`; HELCFL's slack DVFS and the
///   `f_max` baseline claim it, FEDL's energy/delay tradeoff does
///   not): replaying the round with every device at `f_max` (compute
///   finish rescales by `f / f_max`; upload duration is
///   frequency-independent) through an independent TDMA queue bounds
///   the traced makespan from above — DVFS slow-down must not extend
///   the round (HELCFL Alg. 3's defining guarantee). On rounds where a
///   fault fired the *actual* makespan is legitimately degraded, so
///   the check moves to plan time: the planned schedule at the
///   assigned frequencies must not exceed the planned schedule at
///   `f_max` ("slack ≥ 0 at plan time"); such rounds are tallied in
///   [`AuditReport::rounds_fault_exempt`];
/// * **energy-consistency** — for an undisturbed delivery the
///   per-device compute energy equals the `E ∝ f²` projection
///   `E_max · (f / f_max)²` of the recorded at-`f_max` energy; every
///   device (faulted or not) stays at or below that at-`f_max`
///   reference, and the timeline span's energy/slack totals equal the
///   per-device sums;
/// * **wasted-energy** — a device that failed to deliver wastes
///   exactly its spent joules, a clean delivery wastes none, a
///   delivery after retries wastes at most its upload energy, and the
///   timeline's wasted total equals the per-device sum.
///
/// # Digest-mode rounds
///
/// A round whose `timeline` span carries `digest:true` and a
/// `cohort_digest` child (see `trace_digest_into` in `mec-sim`) is
/// audited under the digest contract (**digest-consistency**): the
/// exemplar `device_activity` spans are replayed through every
/// per-device check above exactly as full-fidelity spans are (a subset
/// of a serial TDMA schedule still must not overlap), the timeline's
/// energy/slack/wasted totals must equal the digest's streaming sums,
/// its makespan must be the digest's `release_max_s` clamped to the
/// deadline, the compact histograms must hold exactly one sample per
/// device, every exemplar value must sit inside the digest extrema,
/// and `selected`/`delivered` counts are taken from the digest. The
/// full-cohort delay-neutrality replay is not reconstructible from K
/// exemplars and is skipped on such rounds.
///
/// Plus, once per trace when a final metrics line exists
/// (**metrics-consistency**): every histogram's category counts sum to
/// its total, `tdma.uploads` equals the number of transmitting devices
/// (per-round: digest counts on digest rounds, `device_activity` spans
/// elsewhere), `round.completed` equals the number of round spans,
/// `round.delivered` and `faults.fired` (when present) agree with the
/// same per-round accounting, and the `round.makespan_s` histogram
/// agrees with the timeline spans on sample count and maximum.
///
/// # Errors
///
/// Returns `Err` when the trace is structurally unauditable — no
/// spans, unresolvable parents, no `device_activity` spans (trace
/// predates per-device emission), or an audited span with a required
/// attribute missing or any attribute of the wrong type (named).
/// Violations are *not* errors; they land in the report.
pub fn audit(trace: &Trace, cfg: &AuditConfig) -> Result<AuditReport, String> {
    if trace.spans.is_empty() {
        return Err("no spans at all — was tracing enabled?".to_string());
    }
    // A manifest from a future schema means the trace may encode
    // semantics this auditor does not know; refuse rather than pass a
    // trace it cannot fully interpret. Manifest-free traces (pre-PR 8)
    // stay auditable.
    for m in &trace.manifests {
        if m.schema_version != crate::manifest::MANIFEST_SCHEMA_VERSION {
            return Err(format!(
                "run_manifest schema v{} unsupported (auditor knows v{})",
                m.schema_version,
                crate::manifest::MANIFEST_SCHEMA_VERSION
            ));
        }
    }
    let tree = SpanTree::build(trace)?;
    let mut report = AuditReport {
        manifests: trace.manifests.len(),
        manifests_resumed: trace
            .manifests
            .iter()
            .filter(|m| m.resumed_from.is_some())
            .count(),
        ..AuditReport::default()
    };
    let mut totals = Counts::default();
    let mut makespan_max = f64::NEG_INFINITY;

    for round in trace.spans.iter().filter(|s| s.name == "round") {
        report.rounds += 1;
        let mut activities = Vec::new();
        let mut timeline_span: Option<&TraceSpan> = None;
        let mut quorum_span: Option<&TraceSpan> = None;
        for phase in tree.children(round.id) {
            if phase.name == "quorum" {
                quorum_span = Some(phase);
            }
            if phase.name != "timeline" {
                continue;
            }
            timeline_span = Some(phase);
            for act in tree.children(phase.id) {
                if act.name == "device_activity" {
                    activities.push((act.id, Activity::decode(act)?));
                }
            }
        }
        // Digest-mode rounds carry one cohort_digest child under the
        // timeline span; their activities are the sampled exemplars.
        let mut digest: Option<Digest> = None;
        if let Some(tl) = timeline_span {
            for child in tree.children(tl.id) {
                if child.name == "cohort_digest" {
                    digest = Some(Digest::decode(child)?);
                    break;
                }
            }
        }
        let Some(tl) = timeline_span.filter(|_| !activities.is_empty() || digest.is_some())
        else {
            continue;
        };
        let round_no = round.require::<u64>("index")?;
        report.rounds_audited += 1;
        report.devices_audited += activities.len();
        if digest.is_some() {
            report.rounds_digest += 1;
        }
        let claims_neutrality = tl.optional::<bool>("delay_neutral")?.unwrap_or(false);
        if claims_neutrality {
            report.rounds_delay_neutral += 1;
        }
        let deadline = tl.optional::<f64>("deadline_s")?;
        let deadline_fired = tl.require::<bool>("deadline_fired")?;
        let fault_flag = tl.require::<bool>("fault_fired")?;
        let makespan = tl.require::<f64>("makespan_s")?;
        makespan_max = makespan_max.max(makespan);
        // The round's evidence: the digest when one exists, the device
        // spans otherwise. Every cohort-wide check below reads it.
        let cohort = digest.as_ref().map_or_else(|| Cohort::of_devices(&activities), |d| d.cohort);
        let round_faults = cohort.counts.faults;
        let faulted = fault_flag || round_faults > 0 || deadline_fired;
        if faulted {
            report.rounds_faulted += 1;
            if claims_neutrality && digest.is_none() {
                report.rounds_fault_exempt += 1;
            }
        }
        totals.add(cohort.counts);
        let mut violation = |invariant, span, detail| {
            report.violations.push(Violation { invariant, round: Some(round_no), span, detail });
        };

        // The timeline's digest flag and the cohort_digest child must
        // come and go together.
        let claims_digest = tl.optional::<bool>("digest")?.unwrap_or(false);
        if claims_digest != digest.is_some() {
            violation(
                "digest-consistency",
                Some(tl.id),
                format!(
                    "timeline digest flag is {claims_digest} but the round \
                     {} a cohort_digest span",
                    if digest.is_some() { "carries" } else { "lacks" }
                ),
            );
        }

        // The timeline's fault flag must match the round evidence.
        if fault_flag != (round_faults > 0 || deadline_fired) {
            violation(
                "fault-consistency",
                Some(tl.id),
                format!(
                    "timeline claims fault_fired={fault_flag} but the round shows \
                     {round_faults} fault(s) and deadline_fired={deadline_fired}"
                ),
            );
        }

        for (span_id, a) in &activities {
            if a.uploaded && !cfg.le(a.compute_finish, a.upload_start) {
                violation(
                    "slack-nonnegative",
                    Some(*span_id),
                    format!(
                        "device {}: upload starts at {:.6}s before compute \
                         finishes at {:.6}s (slack {:.3e}s)",
                        a.device,
                        a.upload_start,
                        a.compute_finish,
                        a.upload_start - a.compute_finish
                    ),
                );
            }
            if !cfg.le(a.f_planned, a.f_max) {
                violation(
                    "frequency-bound",
                    Some(*span_id),
                    format!(
                        "device {}: assigned frequency {:.3e}Hz exceeds \
                         f_max {:.3e}Hz",
                        a.device, a.f_planned, a.f_max
                    ),
                );
            }
            if !cfg.le(a.f, a.f_planned) {
                violation(
                    "frequency-bound",
                    Some(*span_id),
                    format!(
                        "device {}: effective frequency {:.3e}Hz exceeds the \
                         DVFS assignment {:.3e}Hz — a fault can only slow a \
                         device down",
                        a.device, a.f, a.f_planned
                    ),
                );
            }
            if a.fault.is_none() && !cfg.close(a.compute_finish, a.planned_compute_finish)
            {
                violation(
                    "fault-consistency",
                    Some(*span_id),
                    format!(
                        "device {}: no fault recorded, yet compute finish \
                         {:.6}s deviates from the plan {:.6}s",
                        a.device, a.compute_finish, a.planned_compute_finish
                    ),
                );
            }
            // E^cal ∝ f² (Eq. 5): both energies come from the same
            // α·W, so an undisturbed delivery's scaled energy must
            // equal the at-f_max reference times (f/f_max)². A faulted
            // device spent *less* (partial compute, truncated upload),
            // so for every device the reference is only an upper
            // bound — down-scaling and dying both save energy.
            if a.f_max > 0.0 {
                if a.fault.is_none() && a.delivered {
                    let projected = a.compute_energy_at_max * (a.f / a.f_max).powi(2);
                    if !cfg.close(a.compute_energy, projected) {
                        violation(
                            "energy-consistency",
                            Some(*span_id),
                            format!(
                                "device {}: compute energy {:.6}J at {:.3e}Hz is \
                                 not the E∝f² projection {:.6}J of the at-f_max \
                                 energy {:.6}J",
                                a.device,
                                a.compute_energy,
                                a.f,
                                projected,
                                a.compute_energy_at_max
                            ),
                        );
                    }
                }
                if !cfg.le(a.compute_energy, a.compute_energy_at_max) {
                    violation(
                        "energy-consistency",
                        Some(*span_id),
                        format!(
                            "device {}: compute energy {:.6}J at the scaled \
                             frequency exceeds the at-f_max energy {:.6}J — \
                             DVFS must only save energy",
                            a.device, a.compute_energy, a.compute_energy_at_max
                        ),
                    );
                }
            }
            // Wasted joules must reconcile with the delivery outcome.
            let spent = a.compute_energy + a.upload_energy;
            if !a.delivered {
                if !cfg.close(a.wasted_energy, spent) {
                    violation(
                        "wasted-energy",
                        Some(*span_id),
                        format!(
                            "device {}: failed delivery must waste its full \
                             {spent:.6}J, recorded {:.6}J",
                            a.device, a.wasted_energy
                        ),
                    );
                }
            } else if a.retries == 0 {
                if !cfg.close(a.wasted_energy, 0.0) {
                    violation(
                        "wasted-energy",
                        Some(*span_id),
                        format!(
                            "device {}: clean delivery wastes nothing, \
                             recorded {:.6}J",
                            a.device, a.wasted_energy
                        ),
                    );
                }
            } else if !cfg.le(a.wasted_energy, a.upload_energy) {
                violation(
                    "wasted-energy",
                    Some(*span_id),
                    format!(
                        "device {}: delivery after {} retries can waste at \
                         most its upload energy {:.6}J, recorded {:.6}J",
                        a.device, a.retries, a.upload_energy, a.wasted_energy
                    ),
                );
            }
        }

        // Digest self-consistency: the aggregates must cohere with
        // each other and bound the replayed exemplars.
        if let Some(d) = &digest {
            let devices = cohort.counts.devices;
            if d.exemplars != activities.len() as u64 {
                violation(
                    "digest-consistency",
                    Some(d.span),
                    format!(
                        "digest claims {} exemplars but the round carries {} \
                         device_activity spans",
                        d.exemplars,
                        activities.len()
                    ),
                );
            }
            for (what, count) in [
                ("exemplars", d.exemplars),
                ("uploads", cohort.counts.uploads),
                ("delivered", cohort.counts.delivered),
                ("faults_fired", round_faults),
            ] {
                if count > devices {
                    violation(
                        "digest-consistency",
                        Some(d.span),
                        format!("digest {what}={count} exceeds its device count {devices}"),
                    );
                }
            }
            for (key, encoded) in
                [("energy_hist", &d.energy_hist), ("slack_hist", &d.slack_hist)]
            {
                match Histogram::decode_compact(encoded) {
                    Some(h) if h.count == devices => {}
                    Some(h) => violation(
                        "digest-consistency",
                        Some(d.span),
                        format!("digest {key} holds {} samples for {devices} devices", h.count),
                    ),
                    None => violation(
                        "digest-consistency",
                        Some(d.span),
                        format!("digest {key} is malformed: {encoded:?}"),
                    ),
                }
            }
            // Every exemplar's values must sit inside the cohort
            // extrema the digest advertises.
            for (span_id, a) in &activities {
                let energy = a.compute_energy + a.upload_energy;
                if !cfg.le(d.energy_min, energy) || !cfg.le(energy, d.energy_max) {
                    violation(
                        "digest-consistency",
                        Some(*span_id),
                        format!(
                            "exemplar {}: energy {energy:.6}J outside the digest \
                             range [{:.6}, {:.6}]J",
                            a.device, d.energy_min, d.energy_max
                        ),
                    );
                }
                let slack =
                    if a.uploaded { a.upload_start - a.compute_finish } else { 0.0 };
                if !cfg.le(d.slack_min, slack) || !cfg.le(slack, d.slack_max) {
                    violation(
                        "digest-consistency",
                        Some(*span_id),
                        format!(
                            "exemplar {}: slack {slack:.6}s outside the digest \
                             range [{:.6}, {:.6}]s",
                            a.device, d.slack_min, d.slack_max
                        ),
                    );
                }
            }
        }

        // TDMA serialization: transmit windows sorted by start must
        // not overlap. A digest round's exemplars are a subset of a
        // serial schedule, so the no-overlap law survives sampling.
        // Devices that crashed before reaching the
        // channel never occupied it.
        let mut windows: Vec<&Activity> =
            activities.iter().map(|(_, a)| a).filter(|a| a.uploaded).collect();
        windows.sort_by(|a, b| {
            a.upload_start
                .partial_cmp(&b.upload_start)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.device_id.cmp(&b.device_id))
        });
        for pair in windows.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            if !cfg.le(prev.upload_end, next.upload_start) {
                violation(
                    "tdma-serialization",
                    None,
                    format!(
                        "uploads overlap: device {} holds the channel until \
                         {:.6}s but device {} starts at {:.6}s",
                        prev.device, prev.upload_end, next.device, next.upload_start
                    ),
                );
            }
        }

        // The round ends when the last contribution releases the
        // channel — or at the deadline, whichever comes first. On a
        // digest round the exemplars need not include the last
        // releaser; the digest's release_max_s stands in for it.
        let natural = cohort.release_max;
        let expected_makespan = deadline.map_or(natural, |t| natural.min(t));
        let actual_makespan = activities
            .iter()
            .map(|(_, a)| a.upload_end)
            .fold(f64::NEG_INFINITY, f64::max);

        // Delay-neutrality: rescale each compute finish to f_max
        // (cycles c = T·f are frequency-invariant, so T_max = T·f/f_max)
        // and replay the TDMA queue. Only rounds whose frequency
        // policy *claimed* the bound (timeline attr `delay_neutral`,
        // from `FrequencyPolicy::delay_neutral`) are held to it —
        // FEDL's closed-form optimum legitimately slows the critical
        // device and extends the round. On faulted rounds the actual
        // makespan is degraded by events DVFS could not foresee, so
        // the claim is audited at plan time instead: the planned
        // schedule at the assigned frequencies must not exceed the
        // planned schedule at f_max.
        // A digest round exposes only its exemplars, so neither TDMA
        // replay can be reconstructed — the claim is witnessed by the
        // full-fidelity rounds and determinism suites instead.
        if claims_neutrality && digest.is_none() {
            if faulted {
                let planned_actual = replay_tdma(
                    activities
                        .iter()
                        .map(|(_, a)| {
                            (a.planned_compute_finish, a.planned_upload, a.device_id)
                        })
                        .collect(),
                );
                let planned_at_max = replay_tdma(
                    activities
                        .iter()
                        .map(|(_, a)| {
                            let finish_at_max = if a.f_max > 0.0 {
                                a.planned_compute_finish * a.f_planned / a.f_max
                            } else {
                                a.planned_compute_finish
                            };
                            (finish_at_max, a.planned_upload, a.device_id)
                        })
                        .collect(),
                );
                if !cfg.le(planned_actual, planned_at_max) {
                    violation(
                        "delay-neutrality",
                        None,
                        format!(
                            "planned makespan {planned_actual:.6}s at the DVFS \
                             assignment exceeds the all-at-f_max plan \
                             {planned_at_max:.6}s — the schedule was unsound \
                             before any fault fired"
                        ),
                    );
                }
            } else {
                let baseline = replay_tdma(
                    activities
                        .iter()
                        .map(|(_, a)| {
                            let finish_at_max = if a.f_max > 0.0 {
                                a.compute_finish * a.f / a.f_max
                            } else {
                                a.compute_finish
                            };
                            (finish_at_max, a.upload_end - a.upload_start, a.device_id)
                        })
                        .collect(),
                );
                if !cfg.le(actual_makespan, baseline) {
                    violation(
                        "delay-neutrality",
                        None,
                        format!(
                            "DVFS-scaled makespan {actual_makespan:.6}s exceeds \
                             the all-at-f_max replay {baseline:.6}s — slow-down \
                             extended the round"
                        ),
                    );
                }
            }
        }

        // Timeline span totals must match the cohort's sums (the
        // digest and the timeline attrs are computed from the same
        // resolved schedule, so disagreement means the emission broke).
        for (key, sum) in TIMELINE_SUMS.into_iter().zip(cohort.sums) {
            let total = tl.require::<f64>(key)?;
            if !cfg.close(total, sum) {
                violation(
                    "energy-consistency",
                    Some(tl.id),
                    format!(
                        "timeline attr {key}={total:.9} does not match \
                         the round sum {sum:.9}"
                    ),
                );
            }
        }
        if !cfg.close(makespan, expected_makespan) {
            violation(
                "tdma-serialization",
                Some(tl.id),
                format!(
                    "timeline attr makespan_s={makespan:.9} is not the \
                     last channel release {expected_makespan:.9}",
                ),
            );
        }
        for src in std::iter::once(tl).chain(quorum_span) {
            for (key, expect) in
                [("selected", cohort.counts.devices), ("delivered", cohort.counts.delivered)]
            {
                let value = src.require::<u64>(key)?;
                if value != expect {
                    violation(
                        "fault-consistency",
                        Some(src.id),
                        format!(
                            "{} span claims {key}={value} but the \
                             device spans show {expect}",
                            src.name
                        ),
                    );
                }
            }
        }
    }

    if report.rounds_audited == 0 {
        return Err(
            "no device_activity spans found — the trace predates per-device \
             emission; regenerate it with a current build"
                .to_string(),
        );
    }

    audit_metrics(trace, cfg, &totals, makespan_max, &mut report);
    Ok(report)
}

/// Cross-checks the final metrics line against the span stream; its
/// counts come from the summed round evidence (digest rounds contribute
/// their aggregates) — the simulator records metrics from the full
/// round state regardless of trace mode — and `makespan_max` is the
/// latest audited timeline makespan.
fn audit_metrics(
    trace: &Trace,
    cfg: &AuditConfig,
    totals: &Counts,
    makespan_max: f64,
    report: &mut AuditReport,
) {
    let Some(metrics) = &trace.metrics else {
        return;
    };
    let mut violation = |invariant, detail| {
        report.violations.push(Violation { invariant, round: None, span: None, detail });
    };

    // Histogram self-consistency: the category tallies partition the
    // total count (see Histogram::record).
    for (name, _, metric) in metrics.iter() {
        let Metric::Histogram(h) = metric else { continue };
        report.metrics_checked += 1;
        let partition = [h.underflow, h.negative, h.infinite, h.nan]
            .into_iter()
            .chain(h.buckets.values().copied())
            .fold(0, u64::saturating_add);
        if partition != h.count {
            violation(
                "metrics-consistency",
                format!(
                    "histogram {name:?}: categories sum to {partition} but \
                     count is {}",
                    h.count
                ),
            );
        }
    }

    let rounds = trace.spans.iter().filter(|s| s.name == "round").count() as u64;
    for (counter, expect, what) in [
        ("round.completed", rounds, "round spans"),
        ("tdma.uploads", totals.uploads, "transmitting devices"),
        ("round.delivered", totals.delivered, "delivered devices"),
        ("faults.fired", totals.faults, "device faults"),
    ] {
        if let Some(&Metric::Counter(value)) = metrics.get(counter) {
            report.metrics_checked += 1;
            if value != expect {
                violation(
                    "metrics-consistency",
                    format!("counter {counter}={value} but the trace has {expect} {what}"),
                );
            }
        }
    }
    for (hist, expect) in [
        ("round.makespan_s", rounds),
        ("device.energy_j", totals.devices),
        ("tdma.queue_wait_s", totals.uploads),
    ] {
        if let Some(h) = metrics.histogram(hist) {
            report.metrics_checked += 1;
            if h.count != expect {
                violation(
                    "metrics-consistency",
                    format!(
                        "histogram {hist} holds {} samples but the trace \
                         implies {expect}",
                        h.count
                    ),
                );
            }
        }
    }
    // The makespan histogram's max must agree with the timeline spans
    // (which already account for deadline clamping and non-uploading
    // crashers).
    let hist_max = metrics.histogram("round.makespan_s").map(|h| h.max);
    if let Some(hist_max) = hist_max.filter(|m| m.is_finite() && makespan_max.is_finite()) {
        report.metrics_checked += 1;
        if !cfg.close(hist_max, makespan_max) {
            violation(
                "metrics-consistency",
                format!(
                    "round.makespan_s max={hist_max} but the latest \
                     timeline makespan is {makespan_max}"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_tdma_serializes_fifo_with_tiebreak() {
        // Two devices finishing together: id order decides; the queue
        // then serializes back-to-back.
        assert_eq!(replay_tdma(vec![(2.0, 5.0, 1), (2.0, 5.0, 0)]), 12.0);
        // A late finisher waits for the channel.
        assert_eq!(replay_tdma(vec![(2.5, 5.0, 0), (10.0, 5.0, 1)]), 15.0);
        assert_eq!(replay_tdma(Vec::new()), 0.0);
    }

    #[test]
    fn close_and_le_respect_tolerances() {
        let cfg = AuditConfig::default();
        assert!(cfg.close(1.0, 1.0 + 1e-9));
        assert!(!cfg.close(1.0, 1.001));
        assert!(cfg.le(1.0, 1.0));
        assert!(cfg.le(1.0 + 1e-9, 1.0));
        assert!(!cfg.le(1.1, 1.0));
    }

    #[test]
    fn audit_rejects_traces_without_device_activity() {
        let text = concat!(
            r#"{"type":"span","name":"timeline","id":3,"parent":2,"t_us":0,"dur_us":1}"#,
            "\n",
            r#"{"type":"span","name":"round","id":2,"parent":null,"t_us":0,"dur_us":2}"#,
        );
        let trace = Trace::parse(text).unwrap();
        let err = audit(&trace, &AuditConfig::default()).unwrap_err();
        assert!(err.contains("no device_activity"), "{err}");
    }

    #[test]
    fn resumed_manifests_are_counted_and_rendered() {
        let report = AuditReport {
            manifests: 2,
            manifests_resumed: 1,
            ..AuditReport::default()
        };
        let rendered = report.render();
        assert!(rendered.contains("2 manifest(s)"), "{rendered}");
        assert!(
            rendered.contains("1 run(s) resumed from a checkpoint"),
            "{rendered}"
        );
        // Lineage is informational, never a violation.
        assert!(report.passed());
        let fresh = AuditReport { manifests: 1, ..AuditReport::default() };
        assert!(!fresh.render().contains("resumed"), "{}", fresh.render());
    }

    #[test]
    fn violation_display_names_invariant_and_round() {
        let v = Violation {
            invariant: "slack-nonnegative",
            round: Some(7),
            span: Some(42),
            detail: "oops".to_string(),
        };
        let text = v.to_string();
        assert!(text.contains("[slack-nonnegative]"), "{text}");
        assert!(text.contains("round 7"), "{text}");
        assert!(text.contains("span 42"), "{text}");
    }
}

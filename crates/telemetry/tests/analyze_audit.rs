//! Golden synthetic-trace tests for the analysis and audit layer.
//!
//! Every fixture is a hand-written JSONL trace with worked-example
//! numbers (the Alg.-3 two-device schedule from the `dvfs` docs:
//! 40 Mbit payload over 8 Mbps → 5 s uploads, device 0 at
//! f_max = 2 GHz finishing at 2.5 s, device 1 slowed to 0.8 GHz to
//! finish exactly when the channel frees at 7.5 s). One fixture
//! passes; one fixture per violation class trips exactly that
//! invariant, so a regression in any single check is pinned to a
//! failing test with its name in it.

use helcfl_telemetry::analyze::{SpanTree, Trace};
use helcfl_telemetry::audit::{audit, AuditConfig};
use helcfl_telemetry::json::JsonValue;

/// One `device_activity` span line under `parent`: an undisturbed
/// delivery, so its plan equals its actuals and nothing is wasted.
#[allow(clippy::too_many_arguments)]
fn activity_line(
    id: u64,
    parent: u64,
    device_id: u64,
    f_hz: f64,
    f_max_hz: f64,
    finish: f64,
    up_start: f64,
    up_end: f64,
    e_compute: f64,
    e_at_max: f64,
) -> String {
    let upload = up_end - up_start;
    format!(
        r#"{{"type":"span","name":"device_activity","id":{id},"parent":{parent},"t_us":0,"dur_us":0,"attrs":{{"device":"v{device_id}","device_id":{device_id},"f_hz":{f_hz},"f_planned_hz":{f_hz},"f_max_hz":{f_max_hz},"planned_compute_finish_s":{finish},"compute_finish_s":{finish},"planned_upload_s":{upload},"upload_start_s":{up_start},"upload_end_s":{up_end},"compute_energy_j":{e_compute},"compute_energy_at_max_j":{e_at_max},"upload_energy_j":1.0,"wasted_energy_j":0.0,"uploaded":true,"delivered":true,"retries":0}}}}"#
    )
}

/// A fault-free `timeline` span line (span 3 under round 2) claiming
/// (or disclaiming) delay-neutrality, whose totals and counts are those
/// of `activities`, the round's `device_activity` lines: only the check
/// a fixture perturbs can fire.
fn timeline_line(neutral: bool, activities: &[String]) -> String {
    let devices = Trace::parse(&activities.join("\n")).expect("activity lines parse").spans;
    let attr = |d: &helcfl_telemetry::analyze::TraceSpan, key| d.require::<f64>(key).unwrap();
    let sum = |key| devices.iter().map(|d| attr(d, key)).sum::<f64>();
    let compute = sum("compute_energy_j");
    let energy = compute + sum("upload_energy_j");
    let slack = sum("upload_start_s") - sum("compute_finish_s");
    let makespan = devices.iter().map(|d| attr(d, "upload_end_s")).fold(0.0, f64::max);
    let n = devices.len();
    format!(
        r#"{{"type":"span","name":"timeline","id":3,"parent":2,"t_us":0,"dur_us":10,"attrs":{{"policy":"test","delay_neutral":{neutral},"fault_fired":false,"deadline_fired":false,"selected":{n},"delivered":{n},"makespan_s":{makespan},"energy_j":{energy},"compute_energy_j":{compute},"wasted_energy_j":0.0,"slack_total_s":{slack}}}}}"#
    )
}

/// A root `round` span line with the given `index` attribute.
fn round_line(id: u64, index: u64) -> String {
    format!(
        r#"{{"type":"span","name":"round","id":{id},"parent":null,"t_us":0,"dur_us":20,"attrs":{{"index":{index}}}}}"#
    )
}

/// Assembles lines in *completion order* (children before parents),
/// exactly as the streaming sink emits them.
fn fixture(lines: &[String]) -> Trace {
    Trace::parse(&lines.join("\n")).expect("fixture must parse")
}

/// One fault-free round `index`: `activities` under the timeline span
/// 3 that [`timeline_line`] derives from them, under round span 2.
fn round_fixture(index: u64, neutral: bool, activities: &[String]) -> Trace {
    let mut lines = activities.to_vec();
    lines.push(timeline_line(neutral, activities));
    lines.push(round_line(2, index));
    fixture(&lines)
}

#[test]
fn tree_reconstructs_completion_ordered_stream() {
    // Leaves complete (and are emitted) before their parents; ids are
    // allocation-ordered but arrival is bottom-up and interleaved.
    let text = concat!(
        r#"{"type":"span","name":"selection","id":3,"parent":2,"t_us":0,"dur_us":5}"#,
        "\n",
        r#"{"type":"span","name":"timeline","id":4,"parent":2,"t_us":5,"dur_us":7}"#,
        "\n",
        r#"{"type":"span","name":"round","id":2,"parent":1,"t_us":0,"dur_us":20,"attrs":{"index":0}}"#,
        "\n",
        r#"{"type":"span","name":"run","id":1,"parent":null,"t_us":0,"dur_us":25}"#,
    );
    let trace = Trace::parse(text).unwrap();
    let tree = SpanTree::build(&trace).unwrap();
    let roots: Vec<_> = tree.roots().map(|s| s.name.as_str()).collect();
    assert_eq!(roots, ["run"]);
    let round: Vec<_> = tree.children(1).collect();
    assert_eq!(round.len(), 1);
    assert_eq!(round[0].name, "round");
    let phases: Vec<_> = tree.children(2).map(|s| s.name.as_str()).collect();
    // Children come back in start-time order, not arrival order.
    assert_eq!(phases, ["selection", "timeline"]);
    let path: Vec<_> = tree.critical_path(1).iter().map(|s| s.name.as_str()).collect();
    assert_eq!(path, ["run", "round", "timeline"]);
}

/// The worked example: device 1's slow-down lands its compute finish
/// exactly on the channel-free instant, energies follow E ∝ f², and
/// the makespan matches the all-at-f_max replay. Nothing to report.
#[test]
fn audit_passes_on_consistent_slack_schedule() {
    let trace = round_fixture(
        0,
        true,
        &[
            activity_line(4, 3, 0, 2.0e9, 2.0e9, 2.5, 2.5, 7.5, 2.0, 2.0),
            activity_line(5, 3, 1, 0.8e9, 2.0e9, 7.5, 7.5, 12.5, 0.384, 2.4),
        ],
    );
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(report.passed(), "unexpected violations:\n{}", report.render());
    assert_eq!(report.rounds_audited, 1);
    assert_eq!(report.rounds_delay_neutral, 1);
    assert_eq!(report.devices_audited, 2);
}

#[test]
fn audit_flags_negative_slack() {
    // Upload starts 0.5 s before compute finishes.
    let trace = round_fixture(
        7,
        true,
        &[
            activity_line(4, 3, 0, 2.0e9, 2.0e9, 3.0, 2.5, 7.5, 2.0, 2.0),
        ],
    );
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].invariant, "slack-nonnegative");
    assert_eq!(report.violations[0].round, Some(7));
}

#[test]
fn audit_flags_delay_extending_dvfs() {
    // A lone device halved to 1 GHz finishes at 5 s and uploads until
    // 10 s; at f_max it would have finished at 2.5 s and been done by
    // 7.5 s. A policy claiming delay-neutrality may not do this.
    let trace = round_fixture(
        3,
        true,
        &[
            activity_line(4, 3, 0, 1.0e9, 2.0e9, 5.0, 5.0, 10.0, 0.5, 2.0),
        ],
    );
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].invariant, "delay-neutrality");
    assert_eq!(report.violations[0].round, Some(3));
    assert!(
        report.violations[0].detail.contains("exceeds"),
        "{}",
        report.violations[0].detail
    );
}

#[test]
fn audit_exempts_rounds_that_disclaim_delay_neutrality() {
    // The identical schedule is legitimate for a policy (FEDL) that
    // trades delay for energy and never claimed the bound.
    let trace = round_fixture(
        3,
        false,
        &[
            activity_line(4, 3, 0, 1.0e9, 2.0e9, 5.0, 5.0, 10.0, 0.5, 2.0),
        ],
    );
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(report.passed(), "{}", report.render());
    assert_eq!(report.rounds_audited, 1);
    assert_eq!(report.rounds_delay_neutral, 0);
}

#[test]
fn audit_flags_overlapping_tdma_uploads() {
    // Device 1 starts uploading at 6 s while device 0 holds the
    // channel until 7.5 s.
    let trace = round_fixture(
        11,
        true,
        &[
            activity_line(4, 3, 0, 2.0e9, 2.0e9, 2.5, 2.5, 7.5, 2.0, 2.0),
            activity_line(5, 3, 1, 2.0e9, 2.0e9, 6.0, 6.0, 11.0, 2.0, 2.0),
        ],
    );
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].invariant, "tdma-serialization");
    assert_eq!(report.violations[0].round, Some(11));
}

#[test]
fn audit_flags_energy_inconsistent_with_f_squared() {
    // At 0.8 GHz the E ∝ f² projection of the 2.4 J at-f_max energy
    // is 0.384 J; recording 3.0 J breaks both the projection equality
    // and the E_f ≤ E_max saving bound. (Neutrality is disclaimed —
    // a lone slowed device extends its round by construction and
    // would drown the energy signal in a delay violation.)
    let trace = round_fixture(
        5,
        false,
        &[
            activity_line(4, 3, 0, 0.8e9, 2.0e9, 7.5, 7.5, 12.5, 3.0, 2.4),
        ],
    );
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.violations.len(), 2, "{}", report.render());
    for v in &report.violations {
        assert_eq!(v.invariant, "energy-consistency");
        assert_eq!(v.round, Some(5));
    }
}

/// Parameters of a fault-era `device_activity` span.
struct FaultActivity {
    id: u64,
    parent: u64,
    device_id: u64,
    f: f64,
    f_planned: f64,
    f_max: f64,
    planned_finish: f64,
    finish: f64,
    planned_upload: f64,
    up_start: f64,
    up_end: f64,
    e_compute: f64,
    e_at_max: f64,
    e_upload: f64,
    wasted: f64,
    uploaded: bool,
    delivered: bool,
    retries: u64,
    /// Fault kind; empty string = no fault attribute.
    fault: &'static str,
}

fn fault_activity_line(a: &FaultActivity) -> String {
    let fault_attr = if a.fault.is_empty() {
        String::new()
    } else {
        format!(r#","fault":"{}""#, a.fault)
    };
    format!(
        r#"{{"type":"span","name":"device_activity","id":{},"parent":{},"t_us":0,"dur_us":0,"attrs":{{"device":"v{}","device_id":{},"f_hz":{},"f_planned_hz":{},"f_max_hz":{},"planned_compute_finish_s":{},"compute_finish_s":{},"planned_upload_s":{},"upload_start_s":{},"upload_end_s":{},"compute_energy_j":{},"compute_energy_at_max_j":{},"upload_energy_j":{},"wasted_energy_j":{},"uploaded":{},"delivered":{},"retries":{}{}}}}}"#,
        a.id,
        a.parent,
        a.device_id,
        a.device_id,
        a.f,
        a.f_planned,
        a.f_max,
        a.planned_finish,
        a.finish,
        a.planned_upload,
        a.up_start,
        a.up_end,
        a.e_compute,
        a.e_at_max,
        a.e_upload,
        a.wasted,
        a.uploaded,
        a.delivered,
        a.retries,
        fault_attr,
    )
}

/// A fault-era `timeline` span line with the round-level fault attrs.
#[allow(clippy::too_many_arguments)]
fn fault_timeline_line(
    id: u64,
    parent: u64,
    neutral: bool,
    fault_fired: bool,
    selected: u64,
    delivered: u64,
    makespan: f64,
    energy: f64,
    compute: f64,
    wasted: f64,
    slack: f64,
) -> String {
    format!(
        r#"{{"type":"span","name":"timeline","id":{id},"parent":{parent},"t_us":0,"dur_us":10,"attrs":{{"policy":"test","delay_neutral":{neutral},"fault_fired":{fault_fired},"deadline_fired":false,"selected":{selected},"delivered":{delivered},"makespan_s":{makespan},"energy_j":{energy},"compute_energy_j":{compute},"wasted_energy_j":{wasted},"slack_total_s":{slack}}}}}"#
    )
}

/// A straggler doubles its compute time mid-round: the actual makespan
/// (20 s) blows past the all-at-f_max replay (12.5 s), but the DVFS
/// *plan* (device 1 at 0.8 GHz finishing exactly at the channel-free
/// instant) was sound.
fn straggler_round() -> Vec<String> {
    vec![
        fault_activity_line(&FaultActivity {
            id: 4,
            parent: 3,
            device_id: 0,
            f: 2.0e9,
            f_planned: 2.0e9,
            f_max: 2.0e9,
            planned_finish: 2.5,
            finish: 2.5,
            planned_upload: 5.0,
            up_start: 2.5,
            up_end: 7.5,
            e_compute: 2.0,
            e_at_max: 2.0,
            e_upload: 1.0,
            wasted: 0.0,
            uploaded: true,
            delivered: true,
            retries: 0,
            fault: "",
        }),
        fault_activity_line(&FaultActivity {
            id: 5,
            parent: 3,
            device_id: 1,
            f: 0.4e9,
            f_planned: 0.8e9,
            f_max: 2.0e9,
            planned_finish: 7.5,
            finish: 15.0,
            planned_upload: 5.0,
            up_start: 15.0,
            up_end: 20.0,
            e_compute: 0.096,
            e_at_max: 2.4,
            e_upload: 1.0,
            wasted: 0.0,
            uploaded: true,
            delivered: true,
            retries: 0,
            fault: "straggler",
        }),
        fault_timeline_line(3, 2, true, true, 2, 2, 20.0, 4.096, 2.096, 0.0, 0.0),
        round_line(2, 4),
    ]
}

/// A neutrality-claiming faulted round is audited at plan time and
/// passes; the degraded actual is exempt.
#[test]
fn audit_exempts_faulted_rounds_from_actual_delay_neutrality() {
    let trace = fixture(&straggler_round());
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(report.passed(), "unexpected violations:\n{}", report.render());
    assert_eq!(report.rounds_faulted, 1);
    assert_eq!(report.rounds_fault_exempt, 1);
    assert_eq!(report.rounds_delay_neutral, 1);
}

/// `fault_fired:true` with neither a device-level fault nor a fired
/// deadline is a telemetry lie, not an exemption ticket.
#[test]
fn audit_flags_claimed_fault_without_evidence() {
    let trace = fixture(&[
        fault_activity_line(&FaultActivity {
            id: 4,
            parent: 3,
            device_id: 0,
            f: 2.0e9,
            f_planned: 2.0e9,
            f_max: 2.0e9,
            planned_finish: 2.5,
            finish: 2.5,
            planned_upload: 5.0,
            up_start: 2.5,
            up_end: 7.5,
            e_compute: 2.0,
            e_at_max: 2.0,
            e_upload: 1.0,
            wasted: 0.0,
            uploaded: true,
            delivered: true,
            retries: 0,
            fault: "",
        }),
        fault_timeline_line(3, 2, false, true, 1, 1, 7.5, 3.0, 2.0, 0.0, 0.0),
        round_line(2, 6),
    ]);
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].invariant, "fault-consistency");
    assert_eq!(report.violations[0].round, Some(6));
}

/// A device that crashed mid-compute (never reached the channel) must
/// waste exactly the joules it spent; under-reporting is flagged.
#[test]
fn audit_flags_wasted_energy_that_ignores_a_failed_delivery() {
    let trace = fixture(&[
        fault_activity_line(&FaultActivity {
            id: 4,
            parent: 3,
            device_id: 0,
            f: 2.0e9,
            f_planned: 2.0e9,
            f_max: 2.0e9,
            planned_finish: 2.5,
            finish: 1.25,
            planned_upload: 5.0,
            up_start: 1.25,
            up_end: 1.25,
            e_compute: 1.0,
            e_at_max: 2.0,
            e_upload: 0.0,
            wasted: 0.2,
            uploaded: false,
            delivered: false,
            retries: 0,
            fault: "crash-compute",
        }),
        fault_timeline_line(3, 2, false, true, 1, 0, 1.25, 1.0, 1.0, 0.2, 0.0),
        round_line(2, 8),
    ]);
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].invariant, "wasted-energy");
    assert_eq!(report.violations[0].round, Some(8));
    assert!(
        report.violations[0].detail.contains("failed delivery"),
        "{}",
        report.violations[0].detail
    );
}

/// A digest-era `timeline` span: the usual summary totals plus the
/// `digest:true` flag that announces the cohort_digest child.
fn digest_timeline_line(id: u64, parent: u64, energy: f64) -> String {
    format!(
        r#"{{"type":"span","name":"timeline","id":{id},"parent":{parent},"t_us":0,"dur_us":10,"attrs":{{"policy":"test","delay_neutral":true,"fault_fired":false,"digest":true,"deadline_fired":false,"uploads":2,"selected":2,"delivered":2,"makespan_s":12.5,"slack_total_s":0.0,"energy_j":{energy},"compute_energy_j":2.384,"wasted_energy_j":0.0}}}}"#
    )
}

/// The worked example's cohort digest: two devices (3.0 J and 1.384 J,
/// both zero slack), last channel release at 12.5 s. Any field can be
/// perturbed by the caller to trip one check.
#[allow(clippy::too_many_arguments)]
fn cohort_digest_line(
    id: u64,
    parent: u64,
    exemplars: u64,
    energy_max: f64,
    energy_hist: &str,
    slack_hist: &str,
) -> String {
    format!(
        r#"{{"type":"span","name":"cohort_digest","id":{id},"parent":{parent},"t_us":0,"dur_us":1,"attrs":{{"devices":2,"exemplars":{exemplars},"uploads":2,"delivered":2,"faults_fired":0,"wasted_energy_sum_j":0.0,"energy_sum_j":4.384,"energy_min_j":1.384,"energy_max_j":{energy_max},"compute_energy_sum_j":2.384,"slack_sum_s":0.0,"slack_min_s":0.0,"slack_max_s":0.0,"release_max_s":12.5,"energy_hist":"{energy_hist}","slack_hist":"{slack_hist}"}}}}"#
    )
}

/// Digest round distilled from the passing worked example: one
/// exemplar (device 0, 3.0 J total) stands in for the two-device
/// cohort. 3.0 J sits in bucket [2,4) (exponent 1), 1.384 J in [1,2)
/// (exponent 0); both zero slacks land in the underflow tally.
#[test]
fn audit_passes_on_a_digest_round_that_matches_its_exemplar() {
    let trace = fixture(&[
        activity_line(4, 3, 0, 2.0e9, 2.0e9, 2.5, 2.5, 7.5, 2.0, 2.0),
        cohort_digest_line(5, 3, 1, 3.0, "u0,n0,i0,x0,0:1,1:1", "u2,n0,i0,x0"),
        digest_timeline_line(3, 2, 4.384),
        round_line(2, 0),
    ]);
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(report.passed(), "unexpected violations:\n{}", report.render());
    assert_eq!(report.rounds_audited, 1);
    assert_eq!(report.rounds_digest, 1);
    // The claim is still counted even though digest rounds skip the
    // full-cohort delay-neutrality replay.
    assert_eq!(report.rounds_delay_neutral, 1);
}

#[test]
fn audit_flags_digest_totals_that_disagree_with_the_timeline() {
    // The timeline over-reports total energy by 1 J against the
    // digest's streaming sum.
    let trace = fixture(&[
        activity_line(4, 3, 0, 2.0e9, 2.0e9, 2.5, 2.5, 7.5, 2.0, 2.0),
        cohort_digest_line(5, 3, 1, 3.0, "u0,n0,i0,x0,0:1,1:1", "u2,n0,i0,x0"),
        digest_timeline_line(3, 2, 5.384),
        round_line(2, 2),
    ]);
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].invariant, "energy-consistency");
    assert_eq!(report.violations[0].round, Some(2));
}

#[test]
fn audit_flags_an_exemplar_outside_the_digest_extrema() {
    // The digest advertises energy_max 2.0 J; the exemplar spent 3.0 J.
    let trace = fixture(&[
        activity_line(4, 3, 0, 2.0e9, 2.0e9, 2.5, 2.5, 7.5, 2.0, 2.0),
        cohort_digest_line(5, 3, 1, 2.0, "u0,n0,i0,x0,0:1,1:1", "u2,n0,i0,x0"),
        digest_timeline_line(3, 2, 4.384),
        round_line(2, 3),
    ]);
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].invariant, "digest-consistency");
    assert_eq!(report.violations[0].span, Some(4), "blames the exemplar span");
    assert!(
        report.violations[0].detail.contains("outside the digest"),
        "{}",
        report.violations[0].detail
    );
}

#[test]
fn audit_flags_a_malformed_digest_histogram() {
    let trace = fixture(&[
        activity_line(4, 3, 0, 2.0e9, 2.0e9, 2.5, 2.5, 7.5, 2.0, 2.0),
        cohort_digest_line(5, 3, 1, 3.0, "garbage", "u2,n0,i0,x0"),
        digest_timeline_line(3, 2, 4.384),
        round_line(2, 4),
    ]);
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].invariant, "digest-consistency");
    assert!(
        report.violations[0].detail.contains("malformed"),
        "{}",
        report.violations[0].detail
    );
}

#[test]
fn audit_flags_a_digest_histogram_that_lost_samples() {
    // energy_hist tallies one sample for a two-device cohort.
    let trace = fixture(&[
        activity_line(4, 3, 0, 2.0e9, 2.0e9, 2.5, 2.5, 7.5, 2.0, 2.0),
        cohort_digest_line(5, 3, 1, 3.0, "u0,n0,i0,x0,1:1", "u2,n0,i0,x0"),
        digest_timeline_line(3, 2, 4.384),
        round_line(2, 5),
    ]);
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].invariant, "digest-consistency");
    assert!(
        report.violations[0].detail.contains("holds 1 samples for 2 devices"),
        "{}",
        report.violations[0].detail
    );
}

#[test]
fn audit_flags_an_exemplar_count_mismatch() {
    // The digest claims two exemplars; only one span was emitted.
    let trace = fixture(&[
        activity_line(4, 3, 0, 2.0e9, 2.0e9, 2.5, 2.5, 7.5, 2.0, 2.0),
        cohort_digest_line(5, 3, 2, 3.0, "u0,n0,i0,x0,0:1,1:1", "u2,n0,i0,x0"),
        digest_timeline_line(3, 2, 4.384),
        round_line(2, 6),
    ]);
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].invariant, "digest-consistency");
    assert!(
        report.violations[0].detail.contains("claims 2 exemplars"),
        "{}",
        report.violations[0].detail
    );
}

#[test]
fn audit_flags_a_digest_flag_without_a_digest_span() {
    // timeline says digest:true but no cohort_digest child exists; the
    // round otherwise audits cleanly as a full trace, so the flag lie
    // is the only violation.
    let activities = [
        activity_line(4, 3, 0, 2.0e9, 2.0e9, 2.5, 2.5, 7.5, 2.0, 2.0),
        activity_line(5, 3, 1, 0.8e9, 2.0e9, 7.5, 7.5, 12.5, 0.384, 2.4),
    ];
    let timeline = timeline_line(true, &activities)
        .replace(r#""fault_fired":false"#, r#""fault_fired":false,"digest":true"#);
    let trace = fixture(&[&activities[..], &[timeline, round_line(2, 7)]].concat());
    let report = audit(&trace, &AuditConfig::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].invariant, "digest-consistency");
    assert!(
        report.violations[0].detail.contains("lacks a cohort_digest"),
        "{}",
        report.violations[0].detail
    );
}

#[test]
fn audit_flags_timeline_totals_that_disagree_with_devices() {
    // The timeline span over-reports total energy by 1 J.
    let lines = [
        activity_line(4, 3, 0, 2.0e9, 2.0e9, 2.5, 2.5, 7.5, 2.0, 2.0),
        r#"{"type":"span","name":"timeline","id":3,"parent":2,"t_us":0,"dur_us":10,"attrs":{"delay_neutral":true,"fault_fired":false,"deadline_fired":false,"selected":1,"delivered":1,"energy_j":4.0,"compute_energy_j":2.0,"wasted_energy_j":0.0,"slack_total_s":0.0,"makespan_s":7.5}}"#
            .to_string(),
        round_line(2, 9),
    ];
    let report = audit(&fixture(&lines), &AuditConfig::default()).unwrap();
    assert!(!report.passed());
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].invariant, "energy-consistency");
    assert_eq!(report.violations[0].round, Some(9));
    assert_eq!(report.violations[0].span, Some(3));
}

/// The auditor reads one trace schema: a device span without an
/// attribute `FaultedRound` always emits is refused with its name,
/// never audited as a delivery by default.
#[test]
fn audit_refuses_a_device_span_without_delivered_by_name() {
    let full = activity_line(4, 3, 0, 2.0e9, 2.0e9, 2.5, 2.5, 7.5, 2.0, 2.0);
    let stripped = full.replace(r#","delivered":true"#, "");
    assert_ne!(stripped, full, "the fixture must carry `delivered`");
    let trace = fixture(&[stripped, timeline_line(true, &[full]), round_line(2, 0)]);
    let err = audit(&trace, &AuditConfig::default()).unwrap_err();
    assert!(err.contains(r#""delivered""#), "{err}");
}

/// A counter entry of a metrics line.
fn counter(value: u64) -> String {
    format!(r#"{{"kind":"counter","class":"sim","value":{value}}}"#)
}

/// A histogram entry of a metrics line: `count`, its zero tally, its
/// exponent buckets (JSON members) and its finite extrema.
fn histogram(count: u64, underflow: u64, buckets: &str, min: f64, max: f64) -> String {
    format!(
        r#"{{"kind":"histogram","class":"sim","value":{{"count":{count},"underflow":{underflow},"negative":0,"infinite":0,"nan":0,"min":{min},"max":{max},"buckets":{{{buckets}}}}}}}"#
    )
}

/// The worked example's round (two clean deliveries, both with zero
/// queue wait, makespan 12.5 s) with the metrics line the simulator
/// records for it, after replacing the named entries with `changed`.
fn audit_with_metrics(changed: &[(&str, String)]) -> helcfl_telemetry::audit::AuditReport {
    let mut entries = [
        ("round.completed", counter(1)),
        ("tdma.uploads", counter(2)),
        ("round.delivered", counter(2)),
        ("faults.fired", counter(0)),
        // 12.5 s lands in [8, 16): exponent 3.
        ("round.makespan_s", histogram(1, 0, r#""3":1"#, 12.5, 12.5)),
        // 3.0 J in [2, 4), 1.384 J in [1, 2).
        ("device.energy_j", histogram(2, 0, r#""0":1,"1":1"#, 1.384, 3.0)),
        ("tdma.queue_wait_s", histogram(2, 2, "", 0.0, 0.0)),
    ];
    for (name, entry) in changed {
        entries.iter_mut().find(|(n, _)| n == name).expect("a known metric").1 = entry.clone();
    }
    let members: Vec<String> =
        entries.iter().map(|(name, entry)| format!(r#""{name}":{entry}"#)).collect();
    let activities = [
        activity_line(4, 3, 0, 2.0e9, 2.0e9, 2.5, 2.5, 7.5, 2.0, 2.0),
        activity_line(5, 3, 1, 0.8e9, 2.0e9, 7.5, 7.5, 12.5, 0.384, 2.4),
    ];
    let trace = fixture(
        &[
            &activities[..],
            &[
                timeline_line(true, &activities),
                round_line(2, 0),
                format!(r#"{{"type":"metrics","metrics":{{{}}}}}"#, members.join(",")),
            ],
        ]
        .concat(),
    );
    audit(&trace, &AuditConfig::default()).unwrap()
}

/// Asserts that `changed` trips exactly one metrics-consistency check,
/// whose detail contains `detail`.
fn assert_one_metrics_violation(changed: &[(&str, String)], detail: &str) {
    let report = audit_with_metrics(changed);
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    let v = &report.violations[0];
    assert_eq!(v.invariant, "metrics-consistency");
    assert!(v.detail.contains(detail), "{}", v.detail);
}

#[test]
fn audit_passes_a_metrics_line_that_agrees_with_the_spans() {
    let report = audit_with_metrics(&[]);
    assert!(report.passed(), "unexpected violations:\n{}", report.render());
    // Three histogram partitions, four counters, three histogram
    // sample counts and the makespan maximum.
    assert_eq!(report.metrics_checked, 11);
}

#[test]
fn audit_flags_a_histogram_whose_categories_miss_its_count() {
    assert_one_metrics_violation(
        &[("device.energy_j", histogram(2, 0, r#""1":1"#, 1.384, 3.0))],
        r#"histogram "device.energy_j": categories sum to 1 but count is 2"#,
    );
}

#[test]
fn audit_flags_counters_that_disagree_with_the_spans() {
    for (name, value, detail) in [
        ("round.completed", 2, "round.completed=2 but the trace has 1 round spans"),
        ("tdma.uploads", 1, "tdma.uploads=1 but the trace has 2 transmitting devices"),
        ("round.delivered", 3, "round.delivered=3 but the trace has 2 delivered devices"),
        ("faults.fired", 1, "faults.fired=1 but the trace has 0 device faults"),
    ] {
        assert_one_metrics_violation(&[(name, counter(value))], detail);
    }
}

#[test]
fn audit_flags_a_histogram_with_the_wrong_sample_count() {
    assert_one_metrics_violation(
        &[("tdma.queue_wait_s", histogram(3, 3, "", 0.0, 0.0))],
        "histogram tdma.queue_wait_s holds 3 samples but the trace implies 2",
    );
}

#[test]
fn audit_flags_a_makespan_maximum_off_the_timeline() {
    assert_one_metrics_violation(
        &[("round.makespan_s", histogram(1, 0, r#""3":1"#, 11.0, 11.0))],
        "round.makespan_s max=11 but the latest timeline makespan is 12.5",
    );
}

/// The auditor reads one trace schema: every attribute its producers
/// always write — on device spans, the cohort digest, the timeline and
/// quorum spans, and the round's `index` — is refused, naming its span
/// and key, when it is dropped or holds another JSON type. The
/// optional ones may be dropped but are refused when mistyped.
#[test]
fn audit_refuses_each_dropped_or_mistyped_attribute_by_name() {
    const OPTIONAL: [&str; 4] = ["deadline_s", "digest", "delay_neutral", "fault"];
    // Written for readers other than the auditor.
    const UNREAD: [(&str, &str); 2] = [("timeline", "policy"), ("timeline", "uploads")];
    let mut faulted = straggler_round();
    faulted[2] = faulted[2].replace(r#""fault_fired":true"#, r#""fault_fired":true,"deadline_s":30.0"#);
    faulted.insert(
        3,
        r#"{"type":"span","name":"quorum","id":6,"parent":2,"t_us":10,"dur_us":1,"attrs":{"selected":2,"delivered":2}}"#
            .to_string(),
    );
    let digest = [
        activity_line(4, 3, 0, 2.0e9, 2.0e9, 2.5, 2.5, 7.5, 2.0, 2.0),
        cohort_digest_line(5, 3, 1, 3.0, "u0,n0,i0,x0,0:1,1:1", "u2,n0,i0,x0"),
        digest_timeline_line(3, 2, 4.384),
        round_line(2, 0),
    ];
    let cfg = AuditConfig::default();
    let mut checked = std::collections::BTreeSet::new();
    for base in [fixture(&faulted), fixture(&digest)] {
        assert!(audit(&base, &cfg).unwrap().passed());
        for (i, span) in base.spans.iter().enumerate() {
            for (j, (key, value)) in span.attrs.iter().enumerate() {
                if UNREAD.contains(&(span.name.as_str(), key.as_str())) {
                    continue;
                }
                let named = format!("{} span {}: attr field {key:?}", span.name, span.id);
                let mut dropped = base.clone();
                dropped.spans[i].attrs.remove(j);
                match audit(&dropped, &cfg) {
                    Ok(_) => assert!(OPTIONAL.contains(&key.as_str()), "{named}: audited without it"),
                    Err(err) => assert!(err.contains(&named), "{named}: {err}"),
                }
                let mut mistyped = base.clone();
                mistyped.spans[i].attrs[j].1 = match value {
                    JsonValue::Bool(_) => JsonValue::String("wrong".into()),
                    _ => JsonValue::Bool(true),
                };
                let err = audit(&mistyped, &cfg).unwrap_err();
                assert!(err.contains(&named), "{named}: {err}");
                checked.insert(format!("{}.{key}", span.name));
            }
        }
    }
    // 18 device attributes (with `fault`), 16 digest aggregates, 12 on
    // the timeline, 2 on the quorum span and the round `index`.
    assert_eq!(checked.len(), 18 + 16 + 12 + 2 + 1, "{checked:?}");
}

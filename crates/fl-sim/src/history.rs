//! Per-round records and training-history queries backing every table
//! and figure of the evaluation.

use helcfl_telemetry::json::{FieldError, JsonObject, JsonValue};
use mec_sim::device::DeviceId;
use mec_sim::units::{Joules, Seconds};

/// Metrics of one completed training iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based iteration index `j`.
    pub round: usize,
    /// Users selected this round.
    pub selected: Vec<DeviceId>,
    /// Users whose update actually reached the aggregator. Equals
    /// `selected` on fault-free rounds; under the fault layer it drops
    /// crashed, retry-exhausted, and deadline-stranded devices.
    pub delivered: Vec<DeviceId>,
    /// Devices still alive (battery not depleted) when the round
    /// started; equals the population size when batteries are
    /// unlimited.
    pub alive_devices: usize,
    /// True TDMA round delay (makespan).
    pub round_time: Seconds,
    /// The paper's Eq. 10 bound for reference.
    pub eq10_time: Seconds,
    /// Round energy `E_Γ` (Eq. 11).
    pub round_energy: Joules,
    /// Compute-only share of the round energy.
    pub compute_energy: Joules,
    /// Total slack observed across selected devices.
    pub slack: Seconds,
    /// Energy spent on work that never reached the aggregator
    /// (crashed compute/uploads, failed retry attempts, deadline
    /// casualties). Zero on fault-free rounds; always included in
    /// [`RoundRecord::round_energy`].
    pub wasted_energy: Joules,
    /// Fault events that fired this round.
    pub faults: usize,
    /// Whether the round's updates were aggregated into the global
    /// model. `false` only when the degradation policy's quorum was
    /// missed (the round's time and energy still count).
    pub aggregated: bool,
    /// Mean pre-update training loss reported by the delivered
    /// clients (zero when nothing was delivered).
    pub train_loss: f32,
    /// Global-model test accuracy, when evaluated this round.
    pub test_accuracy: Option<f64>,
    /// Cumulative training delay through this round (Σ makespans).
    pub cumulative_time: Seconds,
    /// Cumulative training energy through this round.
    pub cumulative_energy: Joules,
}

impl RoundRecord {
    /// Appends the record's members to `o`: the one JSON shape of a
    /// round, in `results/<run>.jsonl` ([`TrainingHistory::to_jsonl`])
    /// and in checkpoints. [`Self::from_json`] reads every number back
    /// bit for bit (the `f32` loss is written widened to `f64`).
    ///
    /// # Errors
    ///
    /// A [`FieldError`] naming the first NaN or infinite member.
    pub fn write_json(&self, o: &mut JsonObject) -> Result<(), FieldError> {
        let ids = |ids: &[DeviceId]| ids.iter().map(|id| id.0).collect::<Vec<_>>();
        o.field("round", self.round)
            .field("selected", ids(&self.selected))
            .field("delivered", ids(&self.delivered))
            .field("alive_devices", self.alive_devices)
            .finite("round_time_s", self.round_time.get())?
            .finite("eq10_time_s", self.eq10_time.get())?
            .finite("round_energy_j", self.round_energy.get())?
            .finite("compute_energy_j", self.compute_energy.get())?
            .finite("slack_s", self.slack.get())?
            .finite("wasted_energy_j", self.wasted_energy.get())?
            .field("faults", self.faults)
            .field("aggregated", self.aggregated)
            .finite("train_loss", f64::from(self.train_loss))?
            .finite("test_accuracy", self.test_accuracy)?
            .finite("cumulative_time_s", self.cumulative_time.get())?
            .finite("cumulative_energy_j", self.cumulative_energy.get())?;
        Ok(())
    }

    /// Reads the members [`Self::write_json`] writes, ignoring others
    /// (a `.jsonl` line's `type` and `scheme`).
    ///
    /// # Errors
    ///
    /// A [`FieldError`] naming the first missing or ill-typed member.
    pub fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        let ids = |key| Ok(v.field::<Vec<usize>>(key)?.into_iter().map(DeviceId).collect());
        let seconds = |key| v.field(key).map(Seconds::new);
        let joules = |key| v.field(key).map(Joules::new);
        Ok(Self {
            round: v.field("round")?,
            selected: ids("selected")?,
            delivered: ids("delivered")?,
            alive_devices: v.field("alive_devices")?,
            round_time: seconds("round_time_s")?,
            eq10_time: seconds("eq10_time_s")?,
            round_energy: joules("round_energy_j")?,
            compute_energy: joules("compute_energy_j")?,
            slack: seconds("slack_s")?,
            wasted_energy: joules("wasted_energy_j")?,
            faults: v.field("faults")?,
            aggregated: v.field("aggregated")?,
            train_loss: v.field("train_loss")?,
            test_accuracy: v.field("test_accuracy")?,
            cumulative_time: seconds("cumulative_time_s")?,
            cumulative_energy: joules("cumulative_energy_j")?,
        })
    }
}

/// The full trajectory of one training run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingHistory {
    scheme: String,
    records: Vec<RoundRecord>,
}

impl TrainingHistory {
    /// Creates an empty history for a named scheme.
    pub fn new(scheme: impl Into<String>) -> Self {
        Self { scheme: scheme.into(), records: Vec::new() }
    }

    /// The scheme name (e.g. `"helcfl"`, `"classic"`).
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Appends a completed round.
    pub fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    /// All per-round records, in order.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Number of completed rounds.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no rounds completed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Highest test accuracy observed (0 if never evaluated).
    pub fn best_accuracy(&self) -> f64 {
        self.records
            .iter()
            .filter_map(|r| r.test_accuracy)
            .fold(0.0, f64::max)
    }

    /// Last evaluated test accuracy.
    pub fn final_accuracy(&self) -> Option<f64> {
        self.records.iter().rev().find_map(|r| r.test_accuracy)
    }

    /// Total training delay across all rounds.
    pub fn total_time(&self) -> Seconds {
        self.records.last().map_or(Seconds::ZERO, |r| r.cumulative_time)
    }

    /// Total training energy across all rounds.
    pub fn total_energy(&self) -> Joules {
        self.records.last().map_or(Joules::ZERO, |r| r.cumulative_energy)
    }

    /// Cumulative training delay until the first evaluated round whose
    /// accuracy reaches `target` — the paper's Table I metric. `None`
    /// (the paper's ✗) if never reached.
    pub fn time_to_accuracy(&self, target: f64) -> Option<Seconds> {
        self.records
            .iter()
            .find(|r| r.test_accuracy.is_some_and(|a| a >= target))
            .map(|r| r.cumulative_time)
    }

    /// Cumulative training energy until `target` accuracy — the Fig. 3
    /// metric. `None` if never reached.
    pub fn energy_to_accuracy(&self, target: f64) -> Option<Joules> {
        self.records
            .iter()
            .find(|r| r.test_accuracy.is_some_and(|a| a >= target))
            .map(|r| r.cumulative_energy)
    }

    /// The accuracy curve as `(round, accuracy)` pairs (evaluated
    /// rounds only) — the Fig. 2 series.
    pub fn accuracy_curve(&self) -> Vec<(usize, f64)> {
        self.records
            .iter()
            .filter_map(|r| r.test_accuracy.map(|a| (r.round, a)))
            .collect()
    }

    /// Fraction of selected updates that were delivered across the
    /// whole run (1.0 for an empty or fault-free history).
    pub fn delivered_fraction(&self) -> f64 {
        let selected: usize = self.records.iter().map(|r| r.selected.len()).sum();
        if selected == 0 {
            return 1.0;
        }
        let delivered: usize = self.records.iter().map(|r| r.delivered.len()).sum();
        delivered as f64 / selected as f64
    }

    /// Total energy spent on failed work across the run.
    pub fn total_wasted_energy(&self) -> Joules {
        self.records.iter().map(|r| r.wasted_energy).sum()
    }

    /// Rounds whose updates actually reached the global model.
    pub fn rounds_aggregated(&self) -> usize {
        self.records.iter().filter(|r| r.aggregated).count()
    }

    /// Serializes the history as CSV (header + one row per round).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scheme,round,num_selected,num_delivered,alive_devices,round_time_s,\
             eq10_time_s,round_energy_j,compute_energy_j,slack_s,wasted_energy_j,\
             train_loss,test_accuracy,cumulative_time_s,cumulative_energy_j,\
             faults,aggregated\n",
        );
        for r in &self.records {
            out.push_str(&format!(
                "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{:.6},{:.6},{},{}\n",
                self.scheme,
                r.round,
                r.selected.len(),
                r.delivered.len(),
                r.alive_devices,
                r.round_time.get(),
                r.eq10_time.get(),
                r.round_energy.get(),
                r.compute_energy.get(),
                r.slack.get(),
                r.wasted_energy.get(),
                r.train_loss,
                r.test_accuracy.map_or(String::new(), |a| format!("{a:.6}")),
                r.cumulative_time.get(),
                r.cumulative_energy.get(),
                r.faults,
                r.aggregated,
            ));
        }
        out
    }

    /// Serializes the history as JSON Lines, the `results/<run>.jsonl`
    /// file: per record, `"type":"round"` and the scheme, then
    /// [`RoundRecord::write_json`]'s members.
    ///
    /// # Errors
    ///
    /// Names the round and the member holding a NaN or an infinity.
    pub fn to_jsonl(&self) -> Result<String, String> {
        let mut out = String::new();
        for r in &self.records {
            let mut o = JsonObject::new();
            o.field("type", "round").field("scheme", self.scheme.as_str());
            r.write_json(&mut o).map_err(|e| format!("round {}: {e}", r.round))?;
            out.push_str(&o.finish());
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, acc: Option<f64>, cum_t: f64, cum_e: f64) -> RoundRecord {
        RoundRecord {
            round,
            selected: vec![DeviceId(0)],
            delivered: vec![DeviceId(0)],
            alive_devices: 1,
            round_time: Seconds::new(10.0),
            eq10_time: Seconds::new(8.0),
            round_energy: Joules::new(5.0),
            compute_energy: Joules::new(3.0),
            slack: Seconds::new(1.0),
            wasted_energy: Joules::ZERO,
            faults: 0,
            aggregated: true,
            train_loss: 1.0,
            test_accuracy: acc,
            cumulative_time: Seconds::new(cum_t),
            cumulative_energy: Joules::new(cum_e),
        }
    }

    fn history() -> TrainingHistory {
        let mut h = TrainingHistory::new("test");
        h.push(record(1, Some(0.3), 10.0, 5.0));
        h.push(record(2, None, 20.0, 10.0));
        h.push(record(3, Some(0.6), 30.0, 15.0));
        h.push(record(4, Some(0.55), 40.0, 20.0));
        h
    }

    #[test]
    fn accuracy_queries_scan_evaluated_rounds() {
        let h = history();
        assert_eq!(h.best_accuracy(), 0.6);
        assert_eq!(h.final_accuracy(), Some(0.55));
        assert_eq!(h.accuracy_curve(), vec![(1, 0.3), (3, 0.6), (4, 0.55)]);
    }

    #[test]
    fn time_and_energy_to_accuracy_find_first_crossing() {
        let h = history();
        assert_eq!(h.time_to_accuracy(0.5), Some(Seconds::new(30.0)));
        assert_eq!(h.energy_to_accuracy(0.5), Some(Joules::new(15.0)));
        assert_eq!(h.time_to_accuracy(0.3), Some(Seconds::new(10.0)));
        // The paper's ✗: never reached.
        assert_eq!(h.time_to_accuracy(0.9), None);
        assert_eq!(h.energy_to_accuracy(0.9), None);
    }

    #[test]
    fn totals_come_from_last_record() {
        let h = history();
        assert_eq!(h.total_time(), Seconds::new(40.0));
        assert_eq!(h.total_energy(), Joules::new(20.0));
        let empty = TrainingHistory::new("none");
        assert_eq!(empty.total_time(), Seconds::ZERO);
        assert!(empty.is_empty());
        assert_eq!(empty.final_accuracy(), None);
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let h = history();
        let jsonl = h.to_jsonl().unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        for (line, r) in lines.iter().zip(h.records()) {
            let v = helcfl_telemetry::json::parse(line).unwrap();
            assert_eq!(v.get("type").and_then(|x| x.as_str()), Some("round"));
            assert_eq!(v.get("scheme").and_then(|x| x.as_str()), Some("test"));
            assert_eq!(RoundRecord::from_json(&v).as_ref(), Ok(r));
        }
        assert!(TrainingHistory::new("empty").to_jsonl().unwrap().is_empty());
    }

    #[test]
    fn a_non_finite_member_is_refused_by_round_and_name() {
        let mut h = history();
        let mut r = record(5, None, 50.0, 25.0);
        r.train_loss = f32::NAN;
        h.push(r);
        let err = h.to_jsonl().unwrap_err();
        assert_eq!(err, r#"round 5: field "train_loss" must be finite (JSON cannot hold NaN)"#);
        let mut r = record(6, Some(f64::INFINITY), 60.0, 30.0);
        assert_eq!(r.write_json(&mut JsonObject::new()).unwrap_err().key, "test_accuracy");
        r.test_accuracy = None;
        r.slack = Seconds::new(f64::NEG_INFINITY);
        assert_eq!(r.write_json(&mut JsonObject::new()).unwrap_err().key, "slack_s");
    }

    #[test]
    fn csv_has_header_plus_rows_and_blank_unevaluated_cells() {
        let h = history();
        let csv = h.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("scheme,round"));
        assert!(lines[0].contains("num_delivered"));
        assert!(lines[0].contains("wasted_energy_j"));
        assert!(lines[0].ends_with("faults,aggregated"));
        // Round 2 was not evaluated → empty accuracy cell.
        assert!(lines[2].contains(",,"));
        assert!(lines[1].contains("test,1,1,1,1,"));
        assert!(lines[1].ends_with("0,true"));
    }

    #[test]
    fn delivery_queries_summarize_fault_outcomes() {
        let mut h = TrainingHistory::new("test");
        let mut faulted = record(1, None, 10.0, 5.0);
        faulted.selected = vec![DeviceId(0), DeviceId(1)];
        faulted.delivered = vec![DeviceId(0)];
        faulted.faults = 1;
        faulted.wasted_energy = Joules::new(2.0);
        h.push(faulted);
        let mut skipped = record(2, None, 20.0, 10.0);
        skipped.selected = vec![DeviceId(0), DeviceId(1)];
        skipped.delivered = Vec::new();
        skipped.aggregated = false;
        h.push(skipped);
        assert!((h.delivered_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(h.total_wasted_energy(), Joules::new(2.0));
        assert_eq!(h.rounds_aggregated(), 1);
        // Fault-free (and empty) histories deliver everything.
        assert_eq!(history().delivered_fraction(), 1.0);
        assert_eq!(TrainingHistory::new("empty").delivered_fraction(), 1.0);
    }
}

//! Round-granular durable checkpoint/resume for the federated runner.
//!
//! A [`RunCheckpoint`] stores each fact the round loop consumes once,
//! and only the facts that cannot be derived: the run's identity, the
//! global model parameters, the accumulated
//! [`crate::history::TrainingHistory`], the per-device battery charge,
//! the selector's persistent state (via
//! [`crate::selection::ClientSelector::snapshot`]), the Sim-class
//! metrics registry, and the telemetry span-id cursor. Everything else
//! is derived on resume: cumulative time and energy and the evaluated
//! accuracies are read off the history, the dead devices are the
//! depleted batteries, and the battery capacity is the config's.
//! Per-round RNG streams (training minibatches, fault sampling, digest
//! exemplars) are derived fresh from the master seed and the round
//! index (see [`crate::seeds`]), so the completed-round index is their
//! entire cursor.
//!
//! Every number is a plain JSON number that the one JSON reader
//! ([`helcfl_telemetry::json`]) reads back exactly: `f64`'s `Display`
//! is its shortest round-tripping text, and the `f32` model is written
//! widened to `f64`. The history and the Sim metrics keep the `.jsonl`
//! round shape and the trace metrics line's. JSON holds no NaN or
//! infinity, so a save that meets one is refused, naming the field. A
//! file is two JSON lines: the payload and its FNV-1a checksum trailer.
//!
//! Durability protocol (crash-safe on POSIX semantics):
//!
//! 1. write the full body to `checkpoint_<slot>.tmp`,
//! 2. `fsync` the temp file,
//! 3. `rename` it over `checkpoint_<slot>.json` (atomic replace),
//! 4. best-effort `fsync` of the directory.
//!
//! Slots alternate 0/1 (an N=2 ring), so even if a tampered or torn
//! `checkpoint_<slot>.json` shows up, [`load_latest`] falls back to the
//! other slot's older-but-valid checkpoint. Truncated, bit-flipped
//! (checksum-mismatch), and wrong-schema-version files are refused
//! with a reason naming the violation; they are only fatal when no
//! valid slot remains.
//!
//! Checkpointing is wired into
//! [`crate::runner::run_federated_traced`] through
//! [`crate::runner::TrainingConfig::checkpoint`] alone, and the ring
//! lives in that config's directory exactly as given. A ring holds one
//! run: resuming a run whose seed, scheme, config fingerprint or fleet
//! size differs is refused, but two runs that differ only in what that
//! identity leaves out (the data setting, HELCFL's η, the frequency
//! policy) are not told apart, so each run needs a directory of its
//! own. The library never reads [`CHECKPOINT_ENV`]; a binary that
//! honours it parses it with [`CheckpointConfig::from_env`] and names
//! one ring per run.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use helcfl_telemetry::json::{self, FieldError, JsonObject, JsonValue};
use helcfl_telemetry::{fnv1a_hex, Class, Metric, MetricsRegistry, RunIdentity};
use mec_sim::units::Joules;

use crate::error::{FlError, Result};
use crate::history::RoundRecord;
use crate::selection::SelectorSnapshot;

/// Schema version written into (and demanded from) checkpoint files.
///
/// Version 4 writes plain numbers and the shared round and metric
/// shapes (see the module docs). Version 3 wrote hex bit patterns,
/// version 2 also stored derivable state, and version 1 lacked the
/// fault series; all three are refused.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 4;

/// Environment variable enabling checkpointing: `dir` or
/// `dir:interval` (checkpoint every `interval` rounds, default 1).
pub const CHECKPOINT_ENV: &str = "HELCFL_CHECKPOINT";

/// Chaos-harness hook: SIGKILL the process at the end of this round
/// (after the checkpoint cadence ran). Test-only; never set in
/// production runs.
pub const CHAOS_KILL_ENV: &str = "HELCFL_CHAOS_KILL_AT";

/// Chaos-harness hook: simulate a torn in-place checkpoint write at
/// this round — half the body is written straight to the slot file
/// (bypassing the temp+rename protocol) and the process aborts.
/// Exercises the loader's ring fallback. Test-only.
pub const CHAOS_TORN_ENV: &str = "HELCFL_CHAOS_TORN_AT";

/// The chaos harness's schedule, read once when a run starts from
/// [`CHAOS_KILL_ENV`] and [`CHAOS_TORN_ENV`] (`None` when unset).
#[derive(Debug, Clone, Copy)]
pub struct ChaosSchedule {
    /// Round at whose end the process SIGKILLs itself.
    pub kill_at: Option<usize>,
    /// Round whose checkpoint write is torn.
    pub torn_at: Option<usize>,
}

impl ChaosSchedule {
    /// Reads both variables.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] naming the variable when its
    /// value is not a round number (or not valid Unicode), so a typo
    /// cannot run a chaos test with no chaos in it.
    pub fn from_env() -> Result<Self> {
        let round = |name| env_value(name)?.map(|v| chaos_round(name, &v)).transpose();
        Ok(Self { kill_at: round(CHAOS_KILL_ENV)?, torn_at: round(CHAOS_TORN_ENV)? })
    }

    /// If [`Self::kill_at`] names this round, the process SIGKILLs
    /// itself (`kill -9`, with `abort` as the fallback when no `kill`
    /// binary exists). The runner calls it at the end of every round.
    pub fn kill_if_scheduled(&self, round: usize) {
        if self.kill_at != Some(round) {
            return;
        }
        helcfl_telemetry::note!("helcfl chaos: SIGKILL at round {round}");
        let pid = std::process::id().to_string();
        let _ = std::process::Command::new("kill").args(["-9", &pid]).status();
        std::process::abort();
    }
}

/// The environment variable `name`'s value, `None` when it is unset.
fn env_value(name: &'static str) -> Result<Option<String>> {
    match std::env::var(name) {
        Ok(value) => Ok(Some(value)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(FlError::InvalidConfig { field: name, reason: "is not valid Unicode".into() })
        }
    }
}

/// Parses the value of the chaos variable `name`: a round number.
fn chaos_round(name: &'static str, value: &str) -> Result<usize> {
    value.trim().parse().map_err(|_| FlError::InvalidConfig {
        field: name,
        reason: format!("`{value}` is not a round number"),
    })
}

/// Where and how often the runner checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Directory holding the two-slot checkpoint ring.
    pub dir: PathBuf,
    /// Checkpoint every this many completed rounds (≥ 1).
    pub interval: usize,
    /// Test/ops seam: force a checkpoint after this round and return
    /// early with the partial history — an in-process stand-in for a
    /// kill that lands right after the round barrier.
    pub halt_after: Option<usize>,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` after every round.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), interval: 1, halt_after: None }
    }

    /// Reads [`CHECKPOINT_ENV`]: `None` when it is unset, otherwise
    /// the value parsed by [`checkpoint_from_env_value`].
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] naming [`CHECKPOINT_ENV`]
    /// for a value that is not valid Unicode or that
    /// [`checkpoint_from_env_value`] refuses.
    pub fn from_env() -> Result<Option<Self>> {
        env_value(CHECKPOINT_ENV)?.map(|v| checkpoint_from_env_value(&v)).transpose()
    }
}

/// Parses a [`CHECKPOINT_ENV`] value: `dir` checkpoints every round,
/// `dir:N` with `N ≥ 1` every `N` rounds. A `:` whose suffix contains
/// `/` is part of the path, not an interval (`/data/a:b/ckpt` is a
/// directory).
///
/// # Errors
///
/// Returns [`FlError::InvalidConfig`] naming [`CHECKPOINT_ENV`] for an
/// empty value, an empty directory (`:3`), and an interval that is not
/// a round count of at least 1 (`dir:0`, `dir:fast`).
pub fn checkpoint_from_env_value(value: &str) -> Result<CheckpointConfig> {
    let refuse = |reason: String| FlError::InvalidConfig { field: CHECKPOINT_ENV, reason };
    let v = value.trim();
    let (dir, interval) = match v.rsplit_once(':') {
        Some((d, suffix)) if !suffix.contains('/') => match suffix.parse::<usize>() {
            Ok(n) if n >= 1 => (d, n),
            _ => {
                return Err(refuse(format!(
                    "interval `{suffix}` is not a round count of at least 1 \
                     (expected DIR or DIR:N)"
                )))
            }
        },
        _ => (v, 1),
    };
    if dir.is_empty() {
        return Err(refuse(format!("`{value}` names no directory (expected DIR or DIR:N)")));
    }
    Ok(CheckpointConfig { dir: PathBuf::from(dir), interval, halt_after: None })
}

/// The round loop's underivable state, frozen after a completed round.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    /// The experiment that wrote it; resume refuses a run whose
    /// identity differs, naming the first differing field
    /// ([`RunIdentity::first_difference`]).
    pub identity: RunIdentity,
    /// Last completed (and fully recorded) 1-based round.
    pub round: usize,
    /// Global model parameters after aggregating `round`.
    pub model: Vec<f32>,
    /// Per-device remaining charge, index-aligned with the population,
    /// when batteries are simulated.
    pub battery_remaining: Option<Vec<Joules>>,
    /// The selector's persistent cross-round state.
    pub selector: SelectorSnapshot,
    /// Next telemetry span id, so a resumed trace tail continues the
    /// uninterrupted run's id sequence.
    pub next_span_id: u64,
    /// The Sim-class metrics, bit-exact.
    pub sim_metrics: MetricsRegistry,
    /// Every completed round's record, in order.
    pub history: Vec<RoundRecord>,
}

impl RunCheckpoint {
    /// Serializes the checkpoint payload as one JSON line (no
    /// checksum trailer; see [`RunCheckpoint::to_file_bytes`]).
    ///
    /// # Errors
    ///
    /// Names the first float that is NaN or infinite (a model
    /// parameter, a battery charge, a Sim gauge or a history member),
    /// which JSON cannot hold.
    pub fn to_json_line(&self) -> core::result::Result<String, String> {
        let model = finite_all("model", self.model.iter().map(|&p| f64::from(p)))?;
        let charges = self.battery_remaining.iter().flatten().map(|c| c.get());
        let charges = finite_all("battery_remaining", charges)?;
        for (name, _, metric) in self.sim_metrics.iter() {
            if let Metric::Gauge(v) = metric {
                let refuse = |e| format!("sim_metrics: metric {name:?}: {e}");
                json::finite("value", *v).map_err(refuse)?;
            }
        }
        let mut history = Vec::with_capacity(self.history.len());
        for (i, r) in self.history.iter().enumerate() {
            let mut o = JsonObject::new();
            r.write_json(&mut o).map_err(|e| format!("history[{i}]: {e}"))?;
            history.push(o);
        }
        let id = &self.identity;
        let mut o = JsonObject::new();
        o.field("type", "helcfl_checkpoint")
            .field("schema_version", CHECKPOINT_SCHEMA_VERSION)
            .field("seed", id.seed)
            .field("scheme", id.scheme.as_str())
            .field("config_fingerprint", id.config_fingerprint.as_str())
            .field("fleet_size", id.fleet_size)
            .field("round", self.round)
            .field("model", model)
            .field("battery_remaining", self.battery_remaining.is_some().then_some(charges))
            .field("selector_counters_len", self.selector.counters_len)
            .field(
                "selector_counters",
                self.selector
                    .counters
                    .iter()
                    .map(|&(q, c)| vec![q as u64, u64::from(c)])
                    .collect::<Vec<_>>(),
            )
            .field("selector_rng", self.selector.rng_state.map(Vec::from))
            .field("next_span_id", self.next_span_id)
            .object("sim_metrics", self.sim_metrics.to_json())
            .field("history", history);
        Ok(o.finish())
    }

    /// The complete on-disk representation: the payload line plus a
    /// `checkpoint_checksum` trailer line carrying the payload's
    /// FNV-1a hash.
    ///
    /// # Errors
    ///
    /// Every [`Self::to_json_line`] refusal.
    pub fn to_file_bytes(&self) -> core::result::Result<String, String> {
        let payload = self.to_json_line()?;
        let checksum = fnv1a_hex(payload.as_bytes());
        Ok(format!("{payload}\n{{\"type\":\"checkpoint_checksum\",\"fnv1a\":\"{checksum}\"}}\n"))
    }

    /// Parses a checkpoint payload object (checksum already verified).
    fn from_json(v: &JsonValue) -> core::result::Result<Self, String> {
        let fleet_size = v.field("fleet_size")?;
        let round = v.field("round")?;
        let battery_remaining: Option<Vec<Joules>> = v
            .field::<Option<Vec<f64>>>("battery_remaining")?
            .map(|charges| charges.into_iter().map(Joules::new).collect());
        if let Some(rem) = &battery_remaining {
            if rem.len() != fleet_size {
                return Err(format!(
                    "battery_remaining covers {} devices but fleet_size is {fleet_size}",
                    rem.len()
                ));
            }
        }
        let rng_state = match v.field::<Option<Vec<u64>>>("selector_rng")? {
            None => None,
            Some(words) => Some(
                <[u64; 4]>::try_from(words)
                    .map_err(|_| FieldError::new("selector_rng", "four integers or null"))?,
            ),
        };
        let sim_metrics = MetricsRegistry::from_json(v.field("sim_metrics")?)
            .map_err(|e| format!("sim_metrics: {e}"))?;
        if let Some((name, ..)) = sim_metrics.iter().find(|(_, class, _)| *class != Class::Sim) {
            return Err(format!("sim_metrics: metric {name:?}: field \"class\" must be \"sim\""));
        }
        let history = v
            .field::<&[JsonValue]>("history")?
            .iter()
            .enumerate()
            .map(|(i, r)| RoundRecord::from_json(r).map_err(|e| format!("history[{i}]: {e}")))
            .collect::<core::result::Result<Vec<_>, _>>()?;
        if history.last().map(|r: &RoundRecord| r.round) != Some(round) {
            return Err(format!(
                "history ends at round {:?} but the checkpoint claims round {round}",
                history.last().map(|r| r.round)
            ));
        }
        Ok(Self {
            identity: RunIdentity {
                seed: v.field("seed")?,
                scheme: v.field::<&str>("scheme")?.to_string(),
                config_fingerprint: v.field::<&str>("config_fingerprint")?.to_string(),
                fleet_size,
            },
            round,
            model: v.field("model")?,
            battery_remaining,
            selector: SelectorSnapshot {
                counters_len: v.field("selector_counters_len")?,
                counters: v.field("selector_counters")?,
                rng_state,
            },
            next_span_id: v.field("next_span_id")?,
            sim_metrics,
            history,
        })
    }
}

/// `values` as JSON numbers, refused by `key` at the first NaN or
/// infinity.
fn finite_all(
    key: &str,
    values: impl Iterator<Item = f64>,
) -> core::result::Result<Vec<f64>, FieldError> {
    values.map(|v| json::finite(key, v)).collect()
}

// --- file I/O --------------------------------------------------------

/// Parses and verifies one checkpoint file's text.
///
/// Returns the checkpoint plus its payload checksum (the value the run
/// manifest records as `resumed_from`).
///
/// # Errors
///
/// Refuses, naming the violation: truncated files (missing payload or
/// trailer), malformed or mismatching checksum trailers (bit flips),
/// non-checkpoint JSON, and unsupported schema versions.
pub fn parse_checkpoint_file(
    text: &str,
) -> core::result::Result<(RunCheckpoint, String), String> {
    let mut lines = text.lines();
    let payload = lines.next().ok_or("truncated checkpoint: empty file")?;
    let trailer =
        lines.next().ok_or("truncated checkpoint: missing checksum trailer")?;
    if lines.next().is_some_and(|l| !l.trim().is_empty()) {
        return Err("trailing garbage after the checksum trailer".into());
    }
    let tv = json::parse(trailer).map_err(|e| {
        format!("truncated or malformed checksum trailer: {e}")
    })?;
    if tv.field::<&str>("type") != Ok("checkpoint_checksum") {
        return Err("malformed checksum trailer: wrong `type`".into());
    }
    let stored: &str = tv.field("fnv1a")?;
    let computed = fnv1a_hex(payload.as_bytes());
    if stored != computed {
        return Err(format!(
            "checksum mismatch: trailer says {stored}, payload hashes to {computed} \
             — refusing the corrupt checkpoint"
        ));
    }
    let v = json::parse(payload)
        .map_err(|e| format!("unparseable checkpoint payload: {e}"))?;
    if v.field::<&str>("type") != Ok("helcfl_checkpoint") {
        return Err("not a HELCFL checkpoint (wrong `type`)".into());
    }
    let schema: u64 = v.field("schema_version")?;
    if schema != CHECKPOINT_SCHEMA_VERSION {
        return Err(format!(
            "unsupported checkpoint schema version {schema} \
             (this build reads version {CHECKPOINT_SCHEMA_VERSION})"
        ));
    }
    RunCheckpoint::from_json(&v).map(|c| (c, computed))
}

fn ckpt_err(path: &Path, reason: String) -> FlError {
    FlError::Checkpoint { path: path.display().to_string(), reason }
}

fn write_atomic(tmp: &Path, dest: &Path, body: &str) -> Result<()> {
    let mut f = File::create(tmp)
        .map_err(|e| ckpt_err(tmp, format!("cannot create checkpoint temp file: {e}")))?;
    f.write_all(body.as_bytes())
        .map_err(|e| ckpt_err(tmp, format!("checkpoint write failed: {e}")))?;
    f.sync_all()
        .map_err(|e| ckpt_err(tmp, format!("checkpoint fsync failed: {e}")))?;
    drop(f);
    fs::rename(tmp, dest)
        .map_err(|e| ckpt_err(dest, format!("cannot publish checkpoint (rename): {e}")))?;
    Ok(())
}

/// Writes checkpoints into the two-slot ring, alternating slots so the
/// previous checkpoint survives until the next one is durably
/// published.
#[derive(Debug)]
pub struct CheckpointWriter {
    dir: PathBuf,
    next_slot: usize,
    torn_at: Option<usize>,
}

impl CheckpointWriter {
    /// A writer whose first save lands in `first_slot` (resume passes
    /// the slot *not* holding the checkpoint it loaded; fresh runs
    /// start at 0). `torn_at` is [`ChaosSchedule::torn_at`]: the round
    /// whose save is torn on purpose (`None` outside the harness).
    pub fn new(dir: PathBuf, first_slot: usize, torn_at: Option<usize>) -> Self {
        Self { dir, next_slot: first_slot % 2, torn_at }
    }

    /// Durably writes `ckpt` (temp file + fsync + atomic rename +
    /// directory fsync) and advances the ring.
    ///
    /// # Errors
    ///
    /// Reports I/O failures with the offending path, and refuses a
    /// checkpoint holding a NaN or an infinity, naming the field
    /// ([`RunCheckpoint::to_json_line`]); the ring slot is not
    /// advanced on failure, so the last good checkpoint is never
    /// sacrificed to a sick disk or an unwritable value.
    pub fn save(&mut self, ckpt: &RunCheckpoint) -> Result<PathBuf> {
        let slot = self.next_slot;
        let dest = self.dir.join(format!("checkpoint_{slot}.json"));
        let body = ckpt
            .to_file_bytes()
            .map_err(|e| ckpt_err(&dest, format!("cannot write checkpoint: {e}")))?;
        fs::create_dir_all(&self.dir).map_err(|e| {
            ckpt_err(&self.dir, format!("cannot create checkpoint directory: {e}"))
        })?;
        if self.torn_at == Some(ckpt.round) {
            // Chaos hook: a torn in-place write — half the body lands
            // in the slot file with no rename protecting it, then the
            // process dies. The loader must refuse this slot by
            // checksum and fall back to the other one.
            let torn = &body.as_bytes()[..body.len() / 2];
            let _ = fs::write(&dest, torn);
            if let Ok(f) = File::open(&dest) {
                let _ = f.sync_all();
            }
            helcfl_telemetry::note!(
                "helcfl chaos: torn checkpoint write at round {} ({})",
                ckpt.round,
                dest.display()
            );
            std::process::abort();
        }
        let tmp = self.dir.join(format!("checkpoint_{slot}.tmp"));
        write_atomic(&tmp, &dest, &body)?;
        if let Ok(d) = File::open(&self.dir) {
            // Directory fsync is best-effort: some filesystems refuse
            // fsync on directory handles; the rename is already
            // atomic with respect to readers.
            let _ = d.sync_all();
        }
        self.next_slot = 1 - slot;
        Ok(dest)
    }
}

/// A checkpoint picked from the on-disk ring.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The parsed, checksum-verified checkpoint.
    pub checkpoint: RunCheckpoint,
    /// Ring slot it came from (0 or 1).
    pub slot: usize,
    /// File it was read from.
    pub path: PathBuf,
    /// FNV-1a checksum of its payload (the manifest's `resumed_from`).
    pub checksum: String,
}

/// Scans the two-slot ring in `dir` and returns the valid checkpoint
/// with the highest completed round.
///
/// * No slot files → `Ok(None)` (fresh start).
/// * A corrupt slot alongside a valid one → the valid one wins and the
///   corruption is reported on stderr (torn-write fallback).
/// * Only corrupt slots → an error naming the first violation, so a
///   tampered checkpoint can never be silently ignored.
///
/// # Errors
///
/// Returns [`FlError::Checkpoint`] when every present slot is refused.
pub fn load_latest(dir: &Path) -> Result<Option<LoadedCheckpoint>> {
    let mut valid: Vec<LoadedCheckpoint> = Vec::new();
    let mut invalid: Vec<(PathBuf, String)> = Vec::new();
    for slot in 0..2 {
        let path = dir.join(format!("checkpoint_{slot}.json"));
        if !path.exists() {
            continue;
        }
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                invalid.push((path, format!("unreadable checkpoint: {e}")));
                continue;
            }
        };
        match parse_checkpoint_file(&text) {
            Ok((checkpoint, checksum)) => {
                valid.push(LoadedCheckpoint { checkpoint, slot, path, checksum });
            }
            Err(reason) => invalid.push((path, reason)),
        }
    }
    if let Some(best) = valid.into_iter().max_by_key(|l| l.checkpoint.round) {
        for (p, r) in &invalid {
            helcfl_telemetry::note!(
                "helcfl checkpoint: ignoring invalid slot {} ({r}); \
                 falling back to {} (round {})",
                p.display(),
                best.path.display(),
                best.checkpoint.round
            );
        }
        return Ok(Some(best));
    }
    match invalid.into_iter().next() {
        Some((path, reason)) => Err(ckpt_err(&path, reason)),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helcfl_telemetry::Histogram;
    use mec_sim::device::DeviceId;
    use mec_sim::units::Seconds;
    use std::collections::BTreeMap;

    fn sample_checkpoint(round: usize) -> RunCheckpoint {
        let mut buckets = BTreeMap::new();
        buckets.insert(-3i16, 4u64);
        buckets.insert(2i16, 9u64);
        let record = |r: usize| RoundRecord {
            round: r,
            selected: vec![DeviceId(1), DeviceId(3)],
            delivered: vec![DeviceId(1)],
            alive_devices: 5,
            round_time: Seconds::new(12.25),
            eq10_time: Seconds::new(11.5),
            round_energy: Joules::new(0.1 + r as f64),
            compute_energy: Joules::new(0.07),
            // A subnormal: the smallest magnitudes still come back.
            slack: Seconds::new(f64::MIN_POSITIVE / 3.0),
            wasted_energy: Joules::new(0.01),
            faults: 1,
            aggregated: r.is_multiple_of(2),
            train_loss: 1.75,
            test_accuracy: if r.is_multiple_of(2) { Some(0.1 + 0.3 * r as f64) } else { None },
            cumulative_time: Seconds::new(12.25 * r as f64),
            cumulative_energy: Joules::new(0.2 * r as f64),
        };
        let mut sim_metrics = MetricsRegistry::new();
        sim_metrics.insert(Class::Sim, "round.completed", Metric::Counter(round as u64));
        sim_metrics.insert(Class::Sim, "eval.accuracy", Metric::Gauge(0.1 + 0.2));
        sim_metrics.insert(
            Class::Sim,
            "round.train_loss",
            Metric::Histogram(Histogram {
                count: 13,
                underflow: 1,
                negative: 0,
                infinite: 0,
                nan: 2,
                min: -0.0,
                max: 1.75,
                buckets,
            }),
        );
        RunCheckpoint {
            identity: RunIdentity {
                seed: 0xDEAD_BEEF_CAFE_F00D,
                scheme: "helcfl".into(),
                config_fingerprint: "abc123".into(),
                fleet_size: 5,
            },
            round,
            // The last is the one f32 whose own shortest text, read
            // through f64, comes back one bit off: written widened to
            // f64, it round-trips.
            model: vec![0.5, -1.25, 3.0e-7, f32::MIN_POSITIVE, f32::from_bits(0x15ae_43fd)],
            battery_remaining: Some(
                (0..5).map(|q| Joules::new(10.0 - q as f64 * 0.3)).collect(),
            ),
            selector: SelectorSnapshot {
                counters_len: 5,
                counters: vec![(1, 2), (3, 1)],
                rng_state: Some([1, u64::MAX, 0x1234, 7]),
            },
            next_span_id: 91,
            sim_metrics,
            history: (1..=round).map(record).collect(),
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("helcfl_ckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let ck = sample_checkpoint(3);
        let (parsed, checksum) = parse_checkpoint_file(&ck.to_file_bytes().unwrap()).unwrap();
        assert_eq!(parsed, ck);
        assert_eq!(checksum.len(), 16);
        // Bit-exactness probes: integers beyond 2^53, the smallest
        // floats, a negative zero and a sum no short decimal names.
        assert_eq!(parsed.identity.seed, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(parsed.selector.rng_state.map(|w| w[1]), Some(u64::MAX));
        assert_eq!(parsed.model[3].to_bits(), f32::MIN_POSITIVE.to_bits());
        assert_eq!(parsed.model[4].to_bits(), 0x15ae_43fd);
        assert_eq!(parsed.history[0].slack.get().to_bits(), (f64::MIN_POSITIVE / 3.0).to_bits());
        let Some(Metric::Histogram(h)) = parsed.sim_metrics.get("round.train_loss") else {
            panic!("histogram lost")
        };
        assert_eq!(h.min.to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            parsed.history[1].test_accuracy.map(f64::to_bits),
            Some((0.1f64 + 0.3 * 2.0).to_bits())
        );
    }

    #[test]
    fn env_value_parsing_covers_valid_and_invalid_forms() {
        let c = checkpoint_from_env_value("/tmp/ck").unwrap();
        assert_eq!((c.dir, c.interval), (PathBuf::from("/tmp/ck"), 1));
        let c = checkpoint_from_env_value("/tmp/ck:5").unwrap();
        assert_eq!((c.dir, c.interval), (PathBuf::from("/tmp/ck"), 5));
        // A colon inside the path is not an interval separator.
        let c = checkpoint_from_env_value("/data/a:b/ck").unwrap();
        assert_eq!((c.dir, c.interval), (PathBuf::from("/data/a:b/ck"), 1));
        // Every other form is refused by the variable's name: an empty
        // value, a zero or non-numeric interval, an empty directory.
        for (bad, says) in [
            ("", "names no directory"),
            ("   ", "names no directory"),
            ("/tmp/ck:0", "interval `0`"),
            ("/tmp/ck:fast", "interval `fast`"),
            ("/tmp/ck:", "interval ``"),
            (":3", "names no directory"),
        ] {
            match checkpoint_from_env_value(bad) {
                Err(FlError::InvalidConfig { field, reason }) => {
                    assert_eq!(field, CHECKPOINT_ENV, "{bad:?}");
                    assert!(reason.contains(says), "{bad:?}: {reason}");
                }
                other => panic!("{bad:?} was not refused: {other:?}"),
            }
        }
    }

    #[test]
    fn writer_alternates_slots_and_loader_picks_the_newest() {
        let dir = scratch_dir("ring");
        let mut w = CheckpointWriter::new(dir.clone(), 0, None);
        let p1 = w.save(&sample_checkpoint(1)).unwrap();
        let p2 = w.save(&sample_checkpoint(2)).unwrap();
        assert!(p1.ends_with("checkpoint_0.json"));
        assert!(p2.ends_with("checkpoint_1.json"));
        let latest = load_latest(&dir).unwrap().unwrap();
        assert_eq!(latest.checkpoint.round, 2);
        assert_eq!(latest.slot, 1);
        // A third save overwrites the oldest slot, not the newest.
        let p3 = w.save(&sample_checkpoint(3)).unwrap();
        assert!(p3.ends_with("checkpoint_0.json"));
        assert_eq!(load_latest(&dir).unwrap().unwrap().checkpoint.round, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_bitflipped_and_wrong_schema_files_are_refused_by_name() {
        let ck = sample_checkpoint(2);
        let good = ck.to_file_bytes().unwrap();

        // Truncated: the trailer (or part of the payload) never hit
        // the disk.
        let payload_len = good.lines().next().unwrap().len();
        let err = parse_checkpoint_file(&good[..payload_len / 2]).unwrap_err();
        assert!(err.contains("truncated"), "unexpected refusal: {err}");
        let err = parse_checkpoint_file("").unwrap_err();
        assert!(err.contains("truncated"), "unexpected refusal: {err}");

        // Bit flip inside the payload: the checksum trailer convicts.
        let mut bytes = good.clone().into_bytes();
        bytes[payload_len / 2] ^= 0x40;
        let err =
            parse_checkpoint_file(std::str::from_utf8(&bytes).unwrap()).unwrap_err();
        assert!(err.contains("checksum mismatch"), "unexpected refusal: {err}");

        // Wrong schema version with a *valid* checksum: refused for
        // the version, not the hash — a stale version-1, -2 or -3 (hex
        // bit patterns) file as much as one from the future.
        let current = format!("\"schema_version\":{CHECKPOINT_SCHEMA_VERSION}");
        assert!(good.contains(&current));
        for version in [1, 2, 3, 999] {
            let other = good.replacen(&current, &format!("\"schema_version\":{version}"), 1);
            let err = parse_checkpoint_file(&file(other.lines().next().unwrap())).unwrap_err();
            assert!(
                err.contains(&format!("unsupported checkpoint schema version {version}")),
                "unexpected refusal: {err}"
            );
        }

        // Wrong document type entirely.
        let err = parse_checkpoint_file(
            "{\"type\":\"run_manifest\"}\n{\"type\":\"checkpoint_checksum\",\"fnv1a\":\"x\"}\n",
        )
        .unwrap_err();
        assert!(
            err.contains("checksum mismatch") || err.contains("not a HELCFL checkpoint"),
            "unexpected refusal: {err}"
        );
    }

    #[test]
    fn torn_newest_slot_falls_back_to_the_previous_good_checkpoint() {
        let dir = scratch_dir("fallback");
        let mut w = CheckpointWriter::new(dir.clone(), 0, None);
        w.save(&sample_checkpoint(1)).unwrap();
        w.save(&sample_checkpoint(2)).unwrap();
        // Tear the newest slot (slot 1, round 2) mid-file.
        let newest = dir.join("checkpoint_1.json");
        let full = fs::read(&newest).unwrap();
        fs::write(&newest, &full[..full.len() / 3]).unwrap();
        let latest = load_latest(&dir).unwrap().unwrap();
        assert_eq!(latest.checkpoint.round, 1, "did not fall back");
        assert_eq!(latest.slot, 0);
        // With every slot corrupt, the refusal is fatal and names the
        // violation instead of silently restarting from scratch.
        let oldest = dir.join("checkpoint_0.json");
        let full = fs::read(&oldest).unwrap();
        fs::write(&oldest, &full[..full.len() / 3]).unwrap();
        let err = load_latest(&dir).unwrap_err();
        assert!(
            err.to_string().contains("truncated"),
            "unexpected refusal: {err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory_and_missing_directory_mean_fresh_start() {
        let dir = scratch_dir("fresh");
        assert!(load_latest(&dir).unwrap().is_none());
        assert!(load_latest(&dir.join("never_created")).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_errors_surface_as_errors_not_panics() {
        // /dev/full accepts opens and fails writes with ENOSPC: the
        // atomic writer must report the failure and leave the
        // destination alone.
        if Path::new("/dev/full").exists() {
            let err = write_atomic(
                Path::new("/dev/full"),
                Path::new("/dev/full"),
                &sample_checkpoint(1).to_file_bytes().unwrap(),
            )
            .unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("checkpoint write failed")
                    || msg.contains("checkpoint fsync failed"),
                "unexpected error: {msg}"
            );
        }
        // A checkpoint directory that cannot exist (a file stands in
        // its way) is a named error, not a panic.
        let mut w = CheckpointWriter::new(PathBuf::from("/dev/null/ck"), 0, None);
        let err = w.save(&sample_checkpoint(1)).unwrap_err();
        assert!(
            err.to_string().contains("checkpoint"),
            "unexpected error: {err}"
        );
        // And loading from it is simply a fresh start.
        assert!(load_latest(Path::new("/dev/null/ck")).unwrap().is_none());
    }

    #[test]
    fn ring_slot_does_not_advance_on_failed_saves() {
        let dir = scratch_dir("sick");
        let mut w = CheckpointWriter::new(dir.clone(), 0, None);
        w.save(&sample_checkpoint(1)).unwrap();
        // Redirect the writer at an impossible directory: failures
        // must not rotate the ring...
        let mut sick = CheckpointWriter { dir: PathBuf::from("/dev/null/ck"), ..w };
        assert!(sick.save(&sample_checkpoint(2)).is_err());
        assert_eq!(sick.next_slot, w.next_slot);
        // ...so the last good checkpoint is still loadable.
        assert_eq!(load_latest(&dir).unwrap().unwrap().checkpoint.round, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A parsed payload written back as one JSON line.
    fn render(v: &JsonValue) -> String {
        use helcfl_telemetry::json::ToJson;
        let list = |parts: Vec<String>| parts.join(",");
        match v {
            JsonValue::Null => "null".into(),
            JsonValue::Bool(b) => b.to_json(),
            JsonValue::Number(n) => n.to_json(),
            JsonValue::Integer(n) => n.to_json(),
            JsonValue::String(s) => s.to_json(),
            JsonValue::Array(items) => format!("[{}]", list(items.iter().map(render).collect())),
            JsonValue::Object(members) => format!(
                "{{{}}}",
                list(members.iter().map(|(k, v)| format!("{}:{}", k.to_json(), render(v))).collect())
            ),
        }
    }

    /// Every one-member corruption of the object `v`: `(key, v without
    /// the member, v with the member's value of another JSON type)`.
    fn corruptions(v: &JsonValue) -> Vec<(String, JsonValue, JsonValue)> {
        let JsonValue::Object(members) = v else { panic!("not an object: {v:?}") };
        (0..members.len())
            .map(|i| {
                let mut without = members.clone();
                let (key, value) = without.remove(i);
                let mut wrong = members.clone();
                wrong[i].1 = match value {
                    JsonValue::Bool(_) => JsonValue::String("wrong".into()),
                    _ => JsonValue::Bool(true),
                };
                (key, JsonValue::Object(without), JsonValue::Object(wrong))
            })
            .collect()
    }

    /// The value at `path` inside `v`: object members by key, array
    /// entries by index.
    fn at<'v>(v: &'v mut JsonValue, path: &[&str]) -> &'v mut JsonValue {
        path.iter().fold(v, |v, step| match v {
            JsonValue::Object(members) => {
                &mut members.iter_mut().find(|(k, _)| k == step).expect("member").1
            }
            JsonValue::Array(items) => &mut items[step.parse::<usize>().expect("index")],
            other => panic!("{step}: not a container: {other:?}"),
        })
    }

    /// A payload line as a checkpoint file with a valid checksum.
    fn file(line: &str) -> String {
        let checksum = fnv1a_hex(line.as_bytes());
        format!("{line}\n{{\"type\":\"checkpoint_checksum\",\"fnv1a\":\"{checksum}\"}}\n")
    }

    #[test]
    fn every_missing_or_ill_typed_payload_field_is_refused_by_name() {
        let payload = json::parse(&sample_checkpoint(2).to_json_line().unwrap()).unwrap();
        assert!(parse_checkpoint_file(&file(&render(&payload))).is_ok());
        // The payload's own fields, then those of a round record, of
        // each metric entry and of the histogram, each corrupted inside
        // an intact payload.
        let mut cases = Vec::new();
        for path in [
            &[][..],
            &["history", "0"],
            &["sim_metrics", "round.completed"],
            &["sim_metrics", "eval.accuracy"],
            &["sim_metrics", "round.train_loss"],
            &["sim_metrics", "round.train_loss", "value"],
        ] {
            for (key, without, wrong) in corruptions(at(&mut payload.clone(), path)) {
                let nest = |entry: JsonValue| {
                    let mut p = payload.clone();
                    *at(&mut p, path) = entry;
                    p
                };
                cases.push((key, nest(without), nest(wrong)));
            }
        }
        // 15 payload fields, 16 in a round record, 3 in each of the
        // three metric entries and 8 in the histogram.
        assert_eq!(cases.len(), 15 + 16 + 3 * 3 + 8);
        for (key, without, wrong) in cases {
            for corrupt in [without, wrong] {
                let err = parse_checkpoint_file(&file(&render(&corrupt))).unwrap_err();
                assert!(
                    err.contains(&format!("\"{key}\"")) || err.contains(&format!("`{key}`")),
                    "{key}: {err}"
                );
            }
        }
    }

    #[test]
    fn integers_beyond_their_type_and_runtime_metrics_are_refused_by_name() {
        let good = sample_checkpoint(2).to_json_line().unwrap();
        let seed = "\"seed\":16045690984503111693";
        for (from, to, says) in [
            // 2^64: one past u64::MAX.
            (seed, "\"seed\":18446744073709551616", "\"seed\" must be an integer in [0, 2^64)"),
            ("\"next_span_id\":91", "\"next_span_id\":1e2", "field \"next_span_id\""),
            ("[1,18446744073709551615,", "[1,18446744073709551616,", "field \"selector_rng\""),
            ("\"class\":\"sim\"", "\"class\":\"runtime\"", "field \"class\" must be \"sim\""),
        ] {
            assert!(good.contains(from), "{from}");
            let err = parse_checkpoint_file(&file(&good.replacen(from, to, 1))).unwrap_err();
            assert!(err.contains(says), "{to}: {err}");
        }
    }

    #[test]
    fn a_non_finite_value_is_refused_at_save_by_name_and_the_ring_holds() {
        let dir = scratch_dir("nonfinite");
        let mut w = CheckpointWriter::new(dir.clone(), 0, None);
        w.save(&sample_checkpoint(1)).unwrap();
        let mut nan_model = sample_checkpoint(2);
        nan_model.model[1] = f32::NAN;
        let mut inf_charge = sample_checkpoint(2);
        inf_charge.battery_remaining.as_mut().unwrap()[2] = Joules::new(f64::INFINITY);
        let mut inf_gauge = sample_checkpoint(2);
        inf_gauge.sim_metrics.insert(Class::Sim, "eval.accuracy", Metric::Gauge(f64::NEG_INFINITY));
        let mut nan_history = sample_checkpoint(2);
        nan_history.history[1].round_energy = Joules::new(f64::NAN);
        for (ck, says) in [
            (nan_model, "field \"model\" must be finite (JSON cannot hold NaN)"),
            (inf_charge, "field \"battery_remaining\" must be finite (JSON cannot hold inf)"),
            (inf_gauge, "sim_metrics: metric \"eval.accuracy\": field \"value\" must be finite"),
            (nan_history, "history[1]: field \"round_energy_j\" must be finite"),
        ] {
            let err = w.save(&ck).unwrap_err().to_string();
            assert!(err.contains(says), "{err}");
        }
        // Nothing was written and the ring did not advance.
        assert!(!dir.join("checkpoint_1.json").exists());
        assert_eq!(w.save(&sample_checkpoint(2)).unwrap(), dir.join("checkpoint_1.json"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_rounds_are_read_or_refused_by_variable() {
        assert_eq!(chaos_round(CHAOS_KILL_ENV, " 7 ").unwrap(), 7);
        for bad in ["", "seven", "-1", "7.0", "0x7"] {
            match chaos_round(CHAOS_TORN_ENV, bad) {
                Err(FlError::InvalidConfig { field, reason }) => {
                    assert_eq!(field, CHAOS_TORN_ENV);
                    assert!(reason.contains(&format!("`{bad}` is not a round number")), "{reason}");
                }
                other => panic!("{bad:?} was not refused: {other:?}"),
            }
        }
    }

    #[test]
    fn fresh_histories_with_no_rounds_are_rejected() {
        let mut ck = sample_checkpoint(2);
        ck.history.pop();
        let err = parse_checkpoint_file(&ck.to_file_bytes().unwrap()).unwrap_err();
        assert!(err.contains("history ends at round"), "{err}");
    }
}

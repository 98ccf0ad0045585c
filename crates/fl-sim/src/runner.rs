//! The synchronous FL training loop (paper Alg. 1), generic over the
//! selection strategy and frequency policy.
//!
//! Local updates and test-set evaluation fan out over a deterministic
//! worker pool (see [`crate::parallel`]): per-worker
//! [`crate::client::ClientTrainer`]s are reused across rounds and
//! phases, per-client RNG streams
//! are derived from the master seed, and all reductions happen in
//! fixed index order — so a run's [`TrainingHistory`] is bit-identical
//! for every thread count.


use detrand::{splitmix64, Rng};
use helcfl_telemetry::{resource, span, Class, RunIdentity, Telemetry};
use mec_sim::battery::Battery;
use mec_sim::device::DeviceId;
use mec_sim::faults::DigestConfig;
use mec_sim::fleet::AliveMask;
use mec_sim::population::Population;
use mec_sim::units::{Bits, Joules, Seconds};

use crate::checkpoint::{
    self, CheckpointConfig, CheckpointWriter, LoadedCheckpoint, RunCheckpoint,
};
use crate::client::{build_clients, Client, LocalUpdateSpec};
use crate::dataset::{LabeledSet, SyntheticTask};
use crate::error::{FlError, Result};
use crate::faults::{DegradationPolicy, DeviceFault, FaultConfig, FaultPlan, FaultedRound};
use crate::frequency::FrequencyPolicy;
use crate::history::{RoundRecord, TrainingHistory};
use crate::parallel::{pool_width, with_trainer_pool, worker_threads};
use crate::partition::Partition;
use crate::seeds::{derive, SeedDomain};
use crate::selection::{
    selection_target, validate_selection, ClientSelector, DeviceSet, SelectionContext,
};
use crate::server::Flcc;

/// Hyper-parameters of one training run (paper §VII-A defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingConfig {
    /// Maximum number of training iterations `J` (paper: 300).
    pub max_rounds: usize,
    /// User selection fraction `C` (paper: 0.1).
    pub fraction: f64,
    /// Upload payload `C_model` in bits (SqueezeNet-scale 40 Mbit).
    pub payload: Bits,
    /// Learning rate `τ` of the local GD update (Eq. 3).
    pub learning_rate: f32,
    /// Local GD steps per round (paper Eq. 3 takes exactly 1).
    pub local_epochs: usize,
    /// Minibatch size of the local update; `0` trains full-batch,
    /// exactly as the paper's Eq. 3. Minibatch shuffles draw from a
    /// per-`(round, client)` RNG stream derived from [`Self::seed`],
    /// so results are independent of the thread count.
    pub batch_size: usize,
    /// Worker threads of the round engine: `0` (the default) resolves
    /// through the `HELCFL_THREADS` environment variable and then
    /// [`std::thread::available_parallelism`]; any other value is used
    /// as-is. Every setting produces bit-identical histories.
    pub threads: usize,
    /// Evaluate the global model every `eval_every` rounds (1 = every
    /// round, as in Fig. 2).
    pub eval_every: usize,
    /// Optional wall-clock training deadline (constraint Eq. 14).
    pub deadline: Option<Seconds>,
    /// Optional per-device battery budget (paper §I: constrained
    /// energy). Devices drain their round energy (Eq. 11 summand) and
    /// shut down when depleted, disappearing from the selectable set.
    pub battery_capacity: Option<Joules>,
    /// Optional convergence-based early exit (Alg. 1's post-round
    /// check: "the FLCC checks whether this newly created global ML
    /// model converges … if so, the training exits").
    pub convergence: Option<ConvergencePolicy>,
    /// Per-round, per-device fault injection (see [`crate::faults`]).
    /// The default all-zero config never fires a fault, and its
    /// histories are pinned bit-for-bit by the determinism suite.
    pub faults: FaultConfig,
    /// What to do when selected devices fail to deliver: round
    /// deadline, minimum aggregation quorum, and the `α_q`
    /// charge-or-refund rule.
    pub degradation: DegradationPolicy,
    /// Digest-mode tracing: `Some(k)` replaces the per-device
    /// `device_activity` children of each traced `timeline` span with
    /// one `cohort_digest` aggregate plus `k` deterministically sampled
    /// exemplar devices (per-round streams split off
    /// [`Self::seed`] via `SeedDomain::DigestExemplars`). This changes
    /// only the trace shape — histories and Sim metrics are
    /// bit-identical with `None` — and is how million-device runs stay
    /// traceable.
    pub digest_exemplars: Option<usize>,
    /// Round-granular checkpointing (see [`crate::checkpoint`]):
    /// `Some` writes a durable [`RunCheckpoint`] into the configured
    /// two-slot ring every `interval` completed rounds and resumes
    /// from the newest valid one on the next run. `None` (the
    /// default) means no checkpointing: the library never reads
    /// `HELCFL_CHECKPOINT` itself, and a binary that honours it builds
    /// this field with [`CheckpointConfig::from_env`]. Like `threads`
    /// and `digest_exemplars`, this field is excluded from the config
    /// fingerprint: a resumed run's history is bit-identical to the
    /// uninterrupted one, so checkpoint cadence is not part of the
    /// experiment's identity.
    pub checkpoint: Option<CheckpointConfig>,
    /// Model layer widths `[input, hidden…, classes]`.
    pub model_dims: Vec<usize>,
    /// Master seed (split per component; see [`crate::seeds`]).
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            max_rounds: 300,
            fraction: 0.1,
            payload: Bits::from_megabits(40.0),
            learning_rate: 0.5,
            local_epochs: 1,
            batch_size: 0,
            threads: 0,
            eval_every: 1,
            deadline: None,
            battery_capacity: None,
            convergence: None,
            faults: FaultConfig::none(),
            degradation: DegradationPolicy::default(),
            digest_exemplars: None,
            checkpoint: None,
            model_dims: vec![64, 64, 10],
            seed: 0,
        }
    }
}

/// Accuracy-plateau convergence test: training stops once the best
/// evaluated accuracy has improved by less than `min_improvement` over
/// the last `window` evaluations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePolicy {
    /// Number of most-recent evaluations the plateau must span
    /// (at least 2).
    pub window: usize,
    /// Minimum accuracy gain that still counts as progress.
    pub min_improvement: f64,
}

impl ConvergencePolicy {
    /// Whether the evaluated-accuracy sequence has plateaued.
    ///
    /// Looks at the trailing `window` entries (`window` is clamped up
    /// to 2, since a plateau needs a before and an after) and reports
    /// convergence when the **best** accuracy among the last
    /// `window - 1` entries exceeds the window's **first** entry by
    /// strictly less than `min_improvement`:
    ///
    /// * Fewer than the (clamped) `window` evaluations → `false`;
    ///   training can never stop before `window` evaluations exist.
    /// * A gain of exactly `min_improvement` still counts as progress
    ///   (the comparison is strict), so `min_improvement == 0.0` stops
    ///   only on strict regression — a perfectly flat window is a gain
    ///   of exactly zero and keeps training.
    /// * Only the windowed entries matter: improvement older than
    ///   `window` evaluations cannot postpone convergence.
    ///
    /// [`TrainingConfig::validate`] rejects `window < 2`; the clamp
    /// here merely keeps direct callers of this method safe.
    pub fn converged(&self, accuracies: &[f64]) -> bool {
        let window = self.window.max(2);
        if accuracies.len() < window {
            return false;
        }
        let recent = &accuracies[accuracies.len() - window..];
        let first = recent[0];
        let best_rest = recent[1..].iter().copied().fold(f64::MIN, f64::max);
        best_rest - first < self.min_improvement
    }
}

impl TrainingConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.max_rounds == 0 {
            return Err(FlError::InvalidConfig {
                field: "max_rounds",
                reason: "must be at least 1".into(),
            });
        }
        if !(self.fraction > 0.0 && self.fraction <= 1.0) {
            return Err(FlError::InvalidConfig {
                field: "fraction",
                reason: format!("must be in (0, 1], got {}", self.fraction),
            });
        }
        if self.payload.get() <= 0.0 {
            return Err(FlError::InvalidConfig {
                field: "payload",
                reason: "must be positive".into(),
            });
        }
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err(FlError::InvalidConfig {
                field: "learning_rate",
                reason: format!("must be positive and finite, got {}", self.learning_rate),
            });
        }
        if self.local_epochs == 0 {
            return Err(FlError::InvalidConfig {
                field: "local_epochs",
                reason: "must be at least 1".into(),
            });
        }
        if self.eval_every == 0 {
            return Err(FlError::InvalidConfig {
                field: "eval_every",
                reason: "must be at least 1".into(),
            });
        }
        if self.model_dims.len() < 2 {
            return Err(FlError::InvalidConfig {
                field: "model_dims",
                reason: "need at least input and output widths".into(),
            });
        }
        if let Some(capacity) = self.battery_capacity {
            if !(capacity.get() > 0.0 && capacity.is_finite()) {
                return Err(FlError::InvalidConfig {
                    field: "battery_capacity",
                    reason: format!("must be positive and finite, got {capacity}"),
                });
            }
        }
        if let Some(policy) = self.convergence {
            if policy.window < 2 {
                return Err(FlError::InvalidConfig {
                    field: "convergence.window",
                    reason: "plateau window must span at least 2 evaluations".into(),
                });
            }
            if !(policy.min_improvement >= 0.0 && policy.min_improvement.is_finite()) {
                return Err(FlError::InvalidConfig {
                    field: "convergence.min_improvement",
                    reason: format!("must be finite and non-negative, got {}",
                        policy.min_improvement),
                });
            }
        }
        if let Some(ckpt) = &self.checkpoint {
            if ckpt.interval == 0 {
                return Err(FlError::InvalidConfig {
                    field: "checkpoint.interval",
                    reason: "must be at least 1 round".into(),
                });
            }
        }
        self.faults.validate()?;
        self.degradation.validate()?;
        Ok(())
    }
}

/// A fully-wired federated experiment: devices with real shard sizes,
/// per-user clients, and the evaluation set.
#[derive(Debug, Clone)]
pub struct FederatedSetup {
    population: Population,
    clients: Vec<Client>,
    eval_set: LabeledSet,
}

impl FederatedSetup {
    /// Wires a population to a dataset through a partition: installs
    /// each user's true `|D_q|` into its device (the compute-delay
    /// driver of Eq. 4) and materializes per-client shards.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::PartitionMismatch`] if the partition and
    /// population disagree on the user count, and propagates shard or
    /// config errors.
    pub fn new(
        mut population: Population,
        task: &SyntheticTask,
        partition: &Partition,
        config: &TrainingConfig,
    ) -> Result<Self> {
        config.validate()?;
        if partition.num_users() != population.len() {
            return Err(FlError::PartitionMismatch {
                partition_users: partition.num_users(),
                population_users: population.len(),
            });
        }
        for (device, indices) in
            population.devices_mut().iter_mut().zip(partition.assignments())
        {
            device.set_num_samples(indices.len()).map_err(FlError::from)?;
        }
        let clients = build_clients(task.train(), partition.assignments())?;
        Ok(Self { population, clients, eval_set: task.test().clone() })
    }

    /// The device population with installed shard sizes.
    #[inline]
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The per-user clients (pure data; learning state lives in the
    /// engine's per-worker [`crate::client::ClientTrainer`]s).
    #[inline]
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// The evaluation set used for accuracy reporting.
    #[inline]
    pub fn eval_set(&self) -> &LabeledSet {
        &self.eval_set
    }
}

/// Runs the full synchronous FL loop (Alg. 1) and returns its history.
///
/// Per round: select users (strategy), assign frequencies (policy),
/// simulate the MEC round timeline, run the local updates (fanned out
/// over the worker pool; see [`TrainingConfig::threads`]), aggregate
/// with FedAvg (Eq. 18) in selection order, evaluate in fixed row
/// blocks, and stop on `J` rounds or the deadline (Eq. 14). The
/// returned history is bit-identical for every worker count.
///
/// # Errors
///
/// Propagates configuration, selection, simulation, and training
/// errors.
pub fn run_federated(
    setup: &mut FederatedSetup,
    config: &TrainingConfig,
    selector: &mut dyn ClientSelector,
    frequency_policy: &dyn FrequencyPolicy,
) -> Result<TrainingHistory> {
    run_federated_traced(setup, config, selector, frequency_policy, &Telemetry::disabled())
}

/// FNV-1a fingerprint over the *semantic* training configuration — the
/// fields that change the simulated experiment. Three fields are
/// deliberately excluded so the run manifest's compatibility check
/// matches what the determinism suite guarantees:
///
/// * `seed` — compared as its own manifest field, so a pure seed change
///   is refused as "seed differs", not an opaque fingerprint mismatch;
/// * `threads` — histories are bit-identical for every worker count;
/// * `digest_exemplars` — changes only the trace shape, and diffing a
///   full-mode trace against a digest-mode trace of the same run is an
///   explicitly supported comparison.
fn config_fingerprint(config: &TrainingConfig) -> String {
    let canonical = format!(
        "{}|{}|{:?}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        config.max_rounds,
        config.fraction,
        config.payload,
        config.learning_rate,
        config.local_epochs,
        config.batch_size,
        config.eval_every,
        config.deadline,
        config.battery_capacity,
        config.convergence,
        config.faults,
        config.degradation,
        config.model_dims,
    );
    helcfl_telemetry::fnv1a_hex(canonical.as_bytes())
}

/// Alg. 1's exit checks after the last completed round: the training
/// deadline (Eq. 14) and the convergence test. Both read only the
/// history, so a resumed run stops exactly where the uninterrupted one
/// did, also when its checkpoint was written at the stopping round.
fn should_stop(config: &TrainingConfig, history: &TrainingHistory) -> bool {
    if history.is_empty() {
        return false;
    }
    let accuracies = || -> Vec<f64> {
        history.records().iter().filter_map(|r| r.test_accuracy).collect()
    };
    config.deadline.is_some_and(|deadline| history.total_time() >= deadline)
        || config.convergence.is_some_and(|policy| policy.converged(&accuracies()))
}

/// [`run_federated`] with full telemetry instrumentation.
///
/// Opens the trace with a `run_manifest` provenance line (schema
/// version, seed, scheme, config fingerprint, resolved workers, trace
/// mode, fleet size, build profile) that `helcfl-trace diff` uses to
/// refuse cross-experiment comparisons.
///
/// Per round, when events are enabled, emits a `round` span with
/// children covering every phase — `availability`, `selection`,
/// `frequency`, `timeline`, `local_update`, `aggregate`, `evaluate`
/// (on evaluation rounds), `quorum`, and `bookkeeping` — plus a
/// one-shot `pool_resolved` point event describing the worker fan-out.
/// The `timeline` phase additionally carries the resolved schedule —
/// one `device_activity` child per selected device with frequency,
/// TDMA window, energy and delivery attributes, plus a marker per
/// fault event (see `FaultedRound::trace_into`) — which
/// `helcfl-trace audit` replays against the paper's model. The
/// round span carries the per-round RNG-stream fingerprint
/// (`rng_probe`), so two diverging runs can be bisected to the first
/// round where random state disagrees.
///
/// Metrics recorded through `tele` split by determinism class:
/// simulation-derived values (TDMA waits, device energy, selection
/// counts, train loss, accuracy) are `Class::Sim` and bit-identical
/// across thread counts and sink choices; worker busy/idle accounting
/// from the traced pool is `Class::Runtime`. With a
/// [`Telemetry::disabled`] handle this is exactly [`run_federated`]:
/// every telemetry call short-circuits on one `Option` check.
///
/// With [`TrainingConfig::digest_exemplars`] set, the `timeline` phase
/// instead carries one `cohort_digest` aggregate plus the sampled
/// exemplar `device_activity` spans. Every round additionally records
/// Runtime-class resource gauges (`runtime.rss_bytes`,
/// `runtime.peak_rss_bytes`, `fleet.memory_bytes`) and ends with a
/// sink flush — the round barrier after which a tailing
/// `helcfl-trace watch` sees the whole round.
///
/// # Errors
///
/// Same conditions as [`run_federated`].
pub fn run_federated_traced(
    setup: &mut FederatedSetup,
    config: &TrainingConfig,
    selector: &mut dyn ClientSelector,
    frequency_policy: &dyn FrequencyPolicy,
    tele: &Telemetry,
) -> Result<TrainingHistory> {
    config.validate()?;
    let chaos = checkpoint::ChaosSchedule::from_env()?;
    let target = selection_target(setup.population.len(), config.fraction)?;
    let fault_plan = FaultPlan::new(config.faults, config.seed)?;
    let mut server = Flcc::new(&config.model_dims, derive(config.seed, SeedDomain::Model))?;
    // The manifest and `pool_resolved` report the width the pool runs.
    let workers = pool_width(
        worker_threads(config.threads),
        setup.clients.len(),
        setup.eval_set.len(),
    );
    let identity = RunIdentity {
        seed: config.seed,
        scheme: selector.name().to_string(),
        config_fingerprint: config_fingerprint(config),
        fleet_size: setup.population.len(),
    };
    // Checkpointing is the caller's: the ring lives in
    // `config.checkpoint`'s directory exactly as given.
    let ckpt_config = config.checkpoint.as_ref();
    // Resume: pick the newest valid checkpoint from the ring and
    // refuse identity mismatches by field name, exactly like the
    // manifest compatibility check.
    let resumed: Option<LoadedCheckpoint> = match ckpt_config {
        Some(cc) => checkpoint::load_latest(&cc.dir)?,
        None => None,
    };
    let ckpt_err = |loaded: &LoadedCheckpoint, reason: String| FlError::Checkpoint {
        path: loaded.path.display().to_string(),
        reason,
    };
    if let Some(loaded) = &resumed {
        if let Some((field, ours, theirs)) =
            loaded.checkpoint.identity.first_difference(&identity)
        {
            let reason =
                format!("refusing resume: {field} differs: checkpoint {ours}, run {theirs}");
            return Err(ckpt_err(loaded, reason));
        }
    }
    let spec = LocalUpdateSpec {
        learning_rate: config.learning_rate,
        local_epochs: config.local_epochs,
        batch_size: config.batch_size,
    };
    let train_seed = derive(config.seed, SeedDomain::ClientTraining);
    let mut history = TrainingHistory::new(selector.name());
    let population_len = setup.population.len();
    // A resumed run continues from the checkpoint's charge; the capacity
    // is the config's, which the identity's fingerprint covers.
    let remaining = resumed.as_ref().and_then(|l| l.checkpoint.battery_remaining.as_deref());
    if let Some(loaded) = &resumed {
        if remaining.is_some() != config.battery_capacity.is_some() {
            let reason = "battery state presence disagrees with the run config \
                          (same fingerprint, different battery shape)";
            return Err(ckpt_err(loaded, reason.into()));
        }
    }
    let mut batteries: Option<Vec<Battery>> = match config.battery_capacity {
        Some(capacity) => Some(
            (0..population_len)
                .map(|q| match remaining {
                    Some(left) => Battery::restore(capacity, left[q]),
                    None => Battery::new(capacity),
                })
                .collect::<core::result::Result<_, _>>()?,
        ),
        None => None,
    };
    // Streaming availability: instead of materializing a filtered
    // `Vec<Device>` every round (O(Q) per round), the mask is updated
    // in place as batteries deplete during bookkeeping — the
    // selectable set observed at each round start is identical. A
    // device leaves the mask exactly when its battery depletes, so a
    // resumed run rebuilds it from the restored charge.
    let mut alive_mask = AliveMask::all_alive(population_len);
    for (q, battery) in batteries.iter().flatten().enumerate() {
        if battery.is_depleted() {
            alive_mask.kill(q);
        }
    }
    // Per-round exemplar sampling streams for digest-mode tracing: one
    // splitmix64 step off a dedicated seed domain per round, so the
    // exemplar choice is reproducible and independent of every other
    // consumer of the master seed.
    let digest_master = derive(config.seed, SeedDomain::DigestExemplars);
    let fleet_bytes = setup.population.memory_bytes();
    // Reinstall the interrupted run's loop state. Per-round RNG
    // streams need no restore: training, fault, and exemplar streams
    // are derived fresh from the master seed and the round index, so
    // `start_round` is their entire cursor. Cumulative time and energy
    // and the convergence input are read off the restored history.
    let mut start_round = 1usize;
    if let Some(loaded) = &resumed {
        let ck = &loaded.checkpoint;
        server.restore_parameters(&ck.model)?;
        for record in &ck.history {
            history.push(record.clone());
        }
        selector.restore(&ck.selector)?;
        start_round = ck.round + 1;
        helcfl_telemetry::note!(
            "helcfl checkpoint: resuming after round {} from {} (checksum {})",
            ck.round,
            loaded.path.display(),
            loaded.checksum
        );
    }
    // A resume's next save must not overwrite the checkpoint it just
    // loaded; fresh runs start the ring at slot 0.
    let mut ckpt_writer = ckpt_config
        .map(|cc| {
            let first_slot = resumed.as_ref().map_or(0, |l| 1 - l.slot);
            CheckpointWriter::new(cc.dir.clone(), first_slot, chaos.torn_at)
        });
    // Provenance first: the run_manifest line heads the trace stream so
    // every reader (diff, audit, watch) knows what produced the bytes
    // that follow. events_enabled gates it exactly like spans.
    if tele.events_enabled() {
        tele.emit_manifest(&helcfl_telemetry::RunManifest {
            schema_version: helcfl_telemetry::MANIFEST_SCHEMA_VERSION,
            identity: identity.clone(),
            threads: workers,
            trace_mode: if config.digest_exemplars.is_some() {
                "digest".to_string()
            } else {
                "full".to_string()
            },
            build_profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
            resumed_from: resumed.as_ref().map(|l| l.checksum.clone()),
            start_round: resumed.as_ref().map(|l| (l.checkpoint.round + 1) as u64),
        });
    }
    tele.event("pool_resolved")
        .with("workers", workers)
        .with("requested", config.threads)
        .with("scheme", selector.name())
        .emit();
    // Record which kernel path this run computes on — Runtime-class
    // gauge plus an event, never a manifest field: SIMD selection is
    // bit-invisible to results, so it must not perturb determinism
    // comparisons or trace identity.
    let simd_path = tinynn::simd::active_path();
    tele.event("kernels_resolved").with("simd_path", simd_path.name()).emit();
    tele.with_metrics(|m| {
        m.gauge_set(Class::Runtime, "kernels.simd_lanes", simd_path.lanes() as f64);
    });
    if let Some(loaded) = &resumed {
        // Reinstall the Sim-class metrics and the span-id cursor only
        // now: the manifest and pool_resolved event above consumed the
        // same early span ids they did in the uninterrupted run, so
        // every remaining round span carries an identical id and the
        // resumed trace tail lines up byte-for-byte (timestamps
        // aside).
        tele.with_metrics(|m| {
            for (name, class, metric) in loaded.checkpoint.sim_metrics.iter() {
                m.insert(class, name, metric.clone());
            }
        });
        tele.restore_next_span_id(loaded.checkpoint.next_span_id);
    }

    // The persistent pool spans the whole run: its worker threads are
    // spawned here, reused by every round's train and eval fan-out,
    // and joined when the round loop returns. Only shared borrows of
    // the setup cross into the pool; the loop below keeps read access
    // to the population alongside them.
    let clients = &setup.clients;
    let eval_set = &setup.eval_set;
    let population = &setup.population;
    with_trainer_pool(workers, &config.model_dims, clients, eval_set, move |pool| {
    for round in start_round..=config.max_rounds {
        // Exit checks on the rounds completed so far: the deadline
        // (Eq. 14) and the Alg. 1 convergence test.
        if should_stop(config, &history) {
            break;
        }
        // Every statement of a round runs inside one of its phase
        // spans, so the phases account for the round's whole wall
        // clock (`helcfl-trace check` judges their coverage).
        let mut round_span = span!(tele, "round", index = round);

        // 0. Battery-driven availability (paper §I: depleted devices
        //    shut down and leave the selectable set V). The mask was
        //    already updated when batteries drained last round.
        let span_phase = round_span.child("availability");
        if tele.events_enabled() {
            // Fingerprint of this round's base RNG stream: two runs
            // that diverge can be bisected to the first round whose
            // probe disagrees.
            let probe = Rng::stream(train_seed, (round as u64) << 32).fingerprint();
            round_span.set("rng_probe", format!("{probe:016x}"));
        }
        let alive_count = alive_mask.alive_count();
        if alive_count == 0 {
            break; // every device has shut down
        }
        span_phase.end();

        // 1. Selection (Alg. 1 line 4).
        let span_phase = round_span.child("selection");
        let selected_ids = {
            let ctx = SelectionContext {
                round,
                devices: DeviceSet::from_slice(population.devices()).with_mask(&alive_mask),
                payload: config.payload,
                target: target.min(alive_count),
            };
            let selected_ids = selector.select_traced(&ctx, tele)?;
            validate_selection(&ctx, &selected_ids)?;
            selected_ids
        };
        span_phase.end();

        // 2. Frequency determination + MEC round simulation.
        let span_phase = round_span.child("frequency");
        let selected: Vec<_> = selected_ids
            .iter()
            .map(|id| *population.get(*id).expect("validated above"))
            .collect();
        let freqs = frequency_policy.frequencies_traced(&selected, config.payload, tele)?;
        span_phase.end();
        let mut span_phase = round_span.child("timeline");
        // An inert plan samples `None` for every device, and with no
        // round deadline the resolved round is the fault-free TDMA
        // timeline bit for bit.
        let faults: Vec<Option<DeviceFault>> =
            selected.iter().map(|d| fault_plan.sample(round, d.id())).collect();
        let sim = FaultedRound::simulate(
            &selected,
            &freqs,
            config.payload,
            &faults,
            config.degradation.round_deadline,
        )?;
        if tele.events_enabled() {
            // Per-device schedule attributes feed the trace auditor;
            // skip the string formatting entirely when no sink listens.
            // The policy name and its delay-neutrality claim ride
            // along so the auditor knows which rounds must respect the
            // all-at-f_max makespan bound (FEDL legitimately doesn't).
            span_phase.set("policy", frequency_policy.name());
            span_phase.set("delay_neutral", frequency_policy.delay_neutral());
            // Digest mode swaps the Q per-device spans for one
            // cohort_digest aggregate plus k sampled exemplars; the
            // per-round seed keeps the sample reproducible.
            match config.digest_exemplars {
                Some(exemplars) => sim.trace_digest_into(
                    &mut span_phase,
                    DigestConfig {
                        exemplars,
                        seed: splitmix64(digest_master ^ round as u64),
                    },
                ),
                None => sim.trace_into(&mut span_phase),
            }
        }
        span_phase.end();

        // 2b. Delivery resolution + quorum. Indices into
        //     `selected_ids` whose update reached the aggregator, and
        //     the ids that did not, in one pass over the delivery
        //     flags.
        let mut span_phase = round_span.child("quorum");
        let mut delivered_idx: Vec<usize> = Vec::with_capacity(selected_ids.len());
        let mut failed: Vec<DeviceId> = Vec::new();
        for (i, delivered) in sim.delivery_by_input().into_iter().enumerate() {
            if delivered {
                delivered_idx.push(i);
            } else {
                failed.push(selected_ids[i]);
            }
        }
        let quorum_met = delivered_idx.len() >= config.degradation.min_quorum;
        span_phase.set("delivered", delivered_idx.len());
        span_phase.set("selected", selected_ids.len());
        span_phase.set("required", config.degradation.min_quorum);
        span_phase.set("met", quorum_met);
        span_phase.end();

        // 3. Local updates (Alg. 1 lines 6–9), dispatched to the
        //    persistent pool — delivered clients only; a stranded
        //    device's gradient never existed as far as the FLCC is
        //    concerned. Each client's update is a pure function of
        //    (global params, its shard, its RNG stream keyed by
        //    `(round, id)`), and the results come back in
        //    `delivered_idx` order, so both the fan-out and the
        //    skipped clients are invisible to the aggregation below.
        let span_phase = round_span.child("local_update");
        let global = server.broadcast();
        let client_indices: Vec<usize> =
            delivered_idx.iter().map(|&j| selected_ids[j].0).collect();
        let round_results =
            pool.train(round, train_seed, &spec, &global, &client_indices, tele, "local_update")?;
        let mut updates = Vec::with_capacity(round_results.len());
        let mut loss_sum = 0.0f64;
        for (params, weight, loss) in round_results {
            loss_sum += f64::from(loss);
            updates.push((params, weight));
        }
        let train_loss =
            if updates.is_empty() { 0.0 } else { (loss_sum / updates.len() as f64) as f32 };
        span_phase.end();

        // 4. FedAvg integration (Alg. 1 line 10, Eq. 18) over the
        //    delivered updates, re-weighted by their shard sizes. A
        //    round below quorum leaves the global model untouched —
        //    its time and energy still count.
        let span_phase = round_span.child("aggregate");
        let aggregated = quorum_met && !updates.is_empty();
        if aggregated {
            server.aggregate(&updates)?;
        }
        span_phase.end();

        // 5. Bookkeeping + evaluation.
        let span_phase = round_span.child("bookkeeping");
        if !config.degradation.charge_failed_selections && !failed.is_empty() {
            // Refund semantics: a selected-but-failed user gets its
            // Eq. 20 appearance charge α_q rolled back, restoring its
            // long-run selection priority.
            selector.on_delivery_failure(&failed);
        }
        let cumulative_time = history.total_time() + sim.round_time();
        let cumulative_energy = history.total_energy() + sim.total_energy();
        if let Some(batteries) = batteries.as_mut() {
            // Each device drains exactly what it spent: a crashed
            // device is charged its partial joules once, never the
            // full-round cost.
            for outcome in sim.outcomes() {
                batteries[outcome.device.0].try_drain(outcome.total_energy());
                if batteries[outcome.device.0].is_depleted() {
                    alive_mask.kill(outcome.device.0);
                }
            }
        }
        let evaluate_now = round % config.eval_every == 0 || round == config.max_rounds;
        span_phase.end();
        let test_accuracy = if evaluate_now {
            let span_phase = round_span.child("evaluate");
            let accuracy = pool.evaluate(&server.broadcast(), tele)?.1;
            span_phase.end();
            Some(accuracy)
        } else {
            None
        };
        let span_phase = round_span.child("bookkeeping");
        tele.with_metrics(|m| {
            m.counter_add(Class::Sim, "round.completed", 1);
            m.counter_add(Class::Sim, "round.selected", selected_ids.len() as u64);
            m.gauge_set(Class::Sim, "round.alive_devices", alive_count as f64);
            m.record(Class::Sim, "round.train_loss", f64::from(train_loss));
            if let Some(accuracy) = test_accuracy {
                m.counter_add(Class::Sim, "eval.runs", 1);
                m.gauge_set(Class::Sim, "eval.accuracy", accuracy);
            }
            if !aggregated {
                m.counter_add(Class::Sim, "round.skipped", 1);
            }
            sim.record_metrics(m);
            // Resource gauges (Runtime class: process state and wall
            // clock, excluded from the determinism pins).
            m.gauge_set(Class::Runtime, "fleet.memory_bytes", fleet_bytes as f64);
            if let Some(rss) = resource::rss_bytes() {
                m.gauge_set(Class::Runtime, "runtime.rss_bytes", rss as f64);
            }
            if let Some(peak) = resource::peak_rss_bytes() {
                m.gauge_set(Class::Runtime, "runtime.peak_rss_bytes", peak as f64);
            }
        });
        let delivered_ids: Vec<DeviceId> =
            delivered_idx.iter().map(|&i| selected_ids[i]).collect();
        history.push(RoundRecord {
            round,
            selected: selected_ids,
            delivered: delivered_ids,
            alive_devices: alive_count,
            round_time: sim.round_time(),
            eq10_time: sim.eq10_bound(),
            round_energy: sim.total_energy(),
            compute_energy: sim.compute_energy(),
            slack: sim.total_slack(),
            wasted_energy: sim.wasted_energy(),
            faults: sim.faults_fired(),
            aggregated,
            train_loss,
            test_accuracy,
            cumulative_time,
            cumulative_energy,
        });
        span_phase.end();
        round_span.end();
        // Round barrier: flush the sink, so a tailing
        // `helcfl-trace watch` sees every finished round.
        tele.flush();

        // 6. Checkpoint cadence. The trace is synced to disk *before*
        //    the checkpoint is written, so a kill between the two
        //    leaves a trace that is replayable at least up to the
        //    round the checkpoint names — never a checkpoint claiming
        //    rounds the trace has not durably seen.
        let halt_now = ckpt_config.is_some_and(|cc| cc.halt_after == Some(round));
        if let Some(cc) = ckpt_config {
            if round % cc.interval == 0 || halt_now || round == config.max_rounds {
                tele.sync_flush();
                let ck = RunCheckpoint {
                    identity: identity.clone(),
                    round,
                    model: server.broadcast(),
                    battery_remaining: batteries
                        .as_ref()
                        .map(|bs| bs.iter().map(Battery::remaining).collect()),
                    selector: selector.snapshot(),
                    next_span_id: tele.peek_next_span_id(),
                    sim_metrics: tele.snapshot().deterministic(),
                    history: history.records().to_vec(),
                };
                if let Some(writer) = ckpt_writer.as_mut() {
                    if let Err(e) = writer.save(&ck) {
                        // A sick disk must not kill the run: the last
                        // good checkpoint survives (the ring slot did
                        // not advance) and training continues.
                        helcfl_telemetry::note!(
                            "helcfl checkpoint: write failed after round {round}, \
                             run continues without it: {e}"
                        );
                        tele.with_metrics(|m| {
                            m.counter_add(Class::Runtime, "checkpoint.write_errors", 1);
                        });
                    }
                }
            }
        }
        // Chaos hook (inert unless HELCFL_CHAOS_KILL_AT is set):
        // placed after the cadence so a scheduled kill lands exactly
        // where a real crash between rounds would.
        chaos.kill_if_scheduled(round);
        if halt_now {
            break;
        }
    }
    tele.flush();
    Ok(history)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use crate::frequency::MaxFrequency;
    use mec_sim::device::DeviceId;
    use mec_sim::population::PopulationBuilder;

    /// A minimal random selector for exercising the loop.
    struct RandomSelector {
        rng: Rng,
    }

    impl ClientSelector for RandomSelector {
        fn name(&self) -> &'static str {
            "test-random"
        }

        fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Vec<DeviceId>> {
            let mut ids: Vec<DeviceId> = ctx.devices.iter().map(|d| d.id()).collect();
            self.rng.shuffle(&mut ids);
            ids.truncate(ctx.target);
            Ok(ids)
        }
    }

    fn tiny_world() -> (FederatedSetup, TrainingConfig) {
        let config = TrainingConfig {
            max_rounds: 8,
            fraction: 0.25,
            model_dims: vec![8, 8, 3],
            learning_rate: 0.5,
            eval_every: 2,
            seed: 1,
            ..TrainingConfig::default()
        };
        let task = SyntheticTask::generate(DatasetConfig {
            num_classes: 3,
            feature_dim: 8,
            train_samples: 240,
            test_samples: 60,
            // Hard enough that random-init accuracy is low and training
            // visibly climbs within a few dozen rounds.
            separation: 1.5,
            seed: 2,
            ..DatasetConfig::default()
        })
        .unwrap();
        let pop = PopulationBuilder::paper_default().num_devices(12).seed(3).build().unwrap();
        let partition = Partition::iid(240, 12, 4).unwrap();
        let setup = FederatedSetup::new(pop, &task, &partition, &config).unwrap();
        (setup, config)
    }

    #[test]
    fn config_validation_names_offending_fields() {
        let invalid = [
            TrainingConfig { max_rounds: 0, ..TrainingConfig::default() },
            TrainingConfig { fraction: 0.0, ..TrainingConfig::default() },
            TrainingConfig { learning_rate: -1.0, ..TrainingConfig::default() },
            TrainingConfig { local_epochs: 0, ..TrainingConfig::default() },
            TrainingConfig { eval_every: 0, ..TrainingConfig::default() },
            TrainingConfig { model_dims: vec![8], ..TrainingConfig::default() },
            TrainingConfig { payload: Bits::ZERO, ..TrainingConfig::default() },
            TrainingConfig {
                faults: FaultConfig { crash_rate: 1.5, ..FaultConfig::none() },
                ..TrainingConfig::default()
            },
            TrainingConfig {
                degradation: DegradationPolicy {
                    min_quorum: 0,
                    ..DegradationPolicy::default()
                },
                ..TrainingConfig::default()
            },
        ];
        for c in invalid {
            assert!(c.validate().is_err(), "accepted invalid config {c:?}");
        }
        assert!(TrainingConfig::default().validate().is_ok());
    }

    #[test]
    fn setup_installs_shard_sizes_into_devices() {
        let (setup, _) = tiny_world();
        for (device, client) in setup.population().devices().iter().zip(setup.clients()) {
            assert_eq!(device.num_samples(), client.num_samples());
            assert_eq!(device.num_samples(), 20);
        }
    }

    #[test]
    fn setup_rejects_mismatched_partition() {
        let config = TrainingConfig { model_dims: vec![8, 3], ..TrainingConfig::default() };
        let task = SyntheticTask::generate(DatasetConfig {
            num_classes: 3,
            feature_dim: 8,
            train_samples: 120,
            test_samples: 30,
            seed: 2,
            ..DatasetConfig::default()
        })
        .unwrap();
        let pop = PopulationBuilder::paper_default().num_devices(10).build().unwrap();
        let partition = Partition::iid(120, 6, 0).unwrap();
        assert!(matches!(
            FederatedSetup::new(pop, &task, &partition, &config),
            Err(FlError::PartitionMismatch { partition_users: 6, population_users: 10 })
        ));
    }

    #[test]
    fn run_produces_one_record_per_round_with_eval_cadence() {
        let (mut setup, config) = tiny_world();
        let mut selector = RandomSelector { rng: Rng::seed_from_u64(7) };
        let history =
            run_federated(&mut setup, &config, &mut selector, &MaxFrequency).unwrap();
        assert_eq!(history.len(), 8);
        assert_eq!(history.scheme(), "test-random");
        for r in history.records() {
            assert_eq!(r.selected.len(), 3); // 12 * 0.25
            assert!(r.round_time.get() > 0.0);
            assert!(r.round_energy.get() > 0.0);
            // eval_every = 2 → even rounds evaluated (and the last).
            assert_eq!(r.test_accuracy.is_some(), r.round % 2 == 0 || r.round == 8);
        }
        // Cumulative time strictly increases.
        for w in history.records().windows(2) {
            assert!(w[1].cumulative_time > w[0].cumulative_time);
            assert!(w[1].cumulative_energy > w[0].cumulative_energy);
        }
    }

    #[test]
    fn training_improves_accuracy_over_random_init() {
        let (mut setup, mut config) = tiny_world();
        config.max_rounds = 40;
        config.eval_every = 1;
        let mut selector = RandomSelector { rng: Rng::seed_from_u64(7) };
        let history =
            run_federated(&mut setup, &config, &mut selector, &MaxFrequency).unwrap();
        let first = history.records()[0].test_accuracy.unwrap();
        let best = history.best_accuracy();
        assert!(
            best > first + 0.15,
            "training did not improve: first {first}, best {best}"
        );
        assert!(best > 0.6, "best accuracy only {best}");
    }

    #[test]
    fn deadline_stops_training_early() {
        let (mut setup, mut config) = tiny_world();
        config.deadline = Some(Seconds::new(1.0)); // absurdly tight
        let mut selector = RandomSelector { rng: Rng::seed_from_u64(7) };
        let history =
            run_federated(&mut setup, &config, &mut selector, &MaxFrequency).unwrap();
        assert_eq!(history.len(), 1);
    }

    #[test]
    fn battery_depletion_shrinks_availability_and_can_end_training() {
        let (mut setup, mut config) = tiny_world();
        config.max_rounds = 60;
        // Tiny budget: a device survives only a few rounds of
        // participation.
        config.battery_capacity = Some(Joules::new(6.0));
        let mut selector = RandomSelector { rng: Rng::seed_from_u64(7) };
        let history =
            run_federated(&mut setup, &config, &mut selector, &MaxFrequency).unwrap();
        // Availability is monotonically non-increasing.
        for w in history.records().windows(2) {
            assert!(w[1].alive_devices <= w[0].alive_devices);
        }
        let first = history.records().first().unwrap().alive_devices;
        let last = history.records().last().unwrap().alive_devices;
        assert_eq!(first, 12);
        assert!(last < first, "no device ever depleted (last alive {last})");
        // Training stopped early: the fleet died before 60 rounds.
        assert!(history.len() < 60, "ran all {} rounds", history.len());
    }

    #[test]
    fn crashed_rounds_charge_partial_energy_and_skip_aggregation() {
        let (mut setup, mut config) = tiny_world();
        config.max_rounds = 2;
        config.eval_every = 1;
        let mut selector = RandomSelector { rng: Rng::seed_from_u64(7) };
        let healthy =
            run_federated(&mut setup, &config, &mut selector, &MaxFrequency).unwrap();

        let (mut setup, mut config) = tiny_world();
        config.max_rounds = 2;
        config.eval_every = 1;
        config.faults = FaultConfig { crash_rate: 1.0, ..FaultConfig::none() };
        let mut selector = RandomSelector { rng: Rng::seed_from_u64(7) };
        let crashed =
            run_federated(&mut setup, &config, &mut selector, &MaxFrequency).unwrap();

        // No update ever reaches the FLCC, so the global model — and
        // therefore the evaluated accuracy — never moves.
        let acc: Vec<f64> =
            crashed.records().iter().filter_map(|r| r.test_accuracy).collect();
        assert!(acc.len() >= 2);
        assert!(acc.windows(2).all(|w| w[0] == w[1]), "model moved without aggregation");
        for (h, c) in healthy.records().iter().zip(crashed.records()) {
            assert_eq!(h.selected, c.selected, "fault streams must not disturb selection");
            assert_eq!(c.faults, c.selected.len());
            assert!(c.delivered.is_empty());
            assert!(!c.aggregated);
            assert_eq!(c.train_loss, 0.0);
            // Every joule of a fully crashed round is wasted...
            assert!(
                (c.wasted_energy.get() - c.round_energy.get()).abs() < 1e-9,
                "wasted {:?} != spent {:?}",
                c.wasted_energy,
                c.round_energy
            );
            // ...and strictly less than the healthy round would have
            // cost: a crashing device is charged its partial joules,
            // never the full-round energy.
            assert!(
                c.round_energy < h.round_energy,
                "crashed round energy {:?} not below healthy {:?}",
                c.round_energy,
                h.round_energy
            );
        }
    }

    #[test]
    fn unreachable_quorum_skips_aggregation_but_still_charges_time_and_energy() {
        let (mut setup, mut config) = tiny_world();
        config.max_rounds = 4;
        config.eval_every = 1;
        // Target is 12 · 0.25 = 3 devices; demanding 4 delivered
        // updates makes every round miss quorum even fault-free.
        config.degradation =
            DegradationPolicy { min_quorum: 4, ..DegradationPolicy::default() };
        let mut selector = RandomSelector { rng: Rng::seed_from_u64(7) };
        let history =
            run_federated(&mut setup, &config, &mut selector, &MaxFrequency).unwrap();
        assert_eq!(history.rounds_aggregated(), 0);
        let acc: Vec<f64> =
            history.records().iter().filter_map(|r| r.test_accuracy).collect();
        assert!(acc.windows(2).all(|w| w[0] == w[1]), "model moved without aggregation");
        for r in history.records() {
            // All updates delivered — quorum, not faults, blocked them.
            assert_eq!(r.delivered, r.selected);
            assert_eq!(r.faults, 0);
            // Time and energy are still spent on the failed round.
            assert!(r.round_time.get() > 0.0);
            assert!(r.round_energy.get() > 0.0);
        }
    }

    #[test]
    fn depletion_under_faults_terminates_training_cleanly() {
        let battery = Joules::new(6.0);
        let (mut setup, mut config) = tiny_world();
        config.max_rounds = 60;
        config.battery_capacity = Some(battery);
        let mut selector = RandomSelector { rng: Rng::seed_from_u64(7) };
        let healthy =
            run_federated(&mut setup, &config, &mut selector, &MaxFrequency).unwrap();

        let (mut setup, mut config) = tiny_world();
        config.max_rounds = 60;
        config.battery_capacity = Some(battery);
        config.faults = FaultConfig { crash_rate: 1.0, ..FaultConfig::none() };
        let mut selector = RandomSelector { rng: Rng::seed_from_u64(7) };
        let crashed =
            run_federated(&mut setup, &config, &mut selector, &MaxFrequency).unwrap();

        // Availability still shrinks monotonically and the run ends
        // without error once the fleet (or the round budget) is gone.
        for w in crashed.records().windows(2) {
            assert!(w[1].alive_devices <= w[0].alive_devices);
        }
        assert!(crashed.records().iter().all(|r| !r.aggregated));
        // Crashing devices spend only partial rounds of energy, so the
        // same battery budget sustains strictly more rounds than the
        // healthy run — double-charging a crashed device would flip
        // this inequality.
        assert!(
            crashed.len() > healthy.len(),
            "crashed fleet died after {} rounds, healthy after {}",
            crashed.len(),
            healthy.len()
        );
    }

    #[test]
    fn unlimited_battery_reports_full_availability() {
        let (mut setup, config) = tiny_world();
        let mut selector = RandomSelector { rng: Rng::seed_from_u64(7) };
        let history =
            run_federated(&mut setup, &config, &mut selector, &MaxFrequency).unwrap();
        assert!(history.records().iter().all(|r| r.alive_devices == 12));
    }

    #[test]
    fn convergence_policy_detects_plateaus() {
        let policy = ConvergencePolicy { window: 3, min_improvement: 0.01 };
        assert!(!policy.converged(&[0.1, 0.2]));
        assert!(!policy.converged(&[0.1, 0.2, 0.3]));
        assert!(policy.converged(&[0.5, 0.502, 0.501]));
        // Improvement within the window resets the clock.
        assert!(!policy.converged(&[0.5, 0.55, 0.6]));
    }

    #[test]
    fn convergence_window_below_two_is_clamped_for_direct_callers() {
        // `validate()` rejects window < 2; direct calls get the clamp.
        for window in [0usize, 1, 2] {
            let policy = ConvergencePolicy { window, min_improvement: 0.01 };
            // One evaluation can never be a plateau.
            assert!(!policy.converged(&[0.5]), "window={window}");
            assert!(!policy.converged(&[]), "window={window}");
            // Two entries behave exactly like an explicit window of 2.
            assert!(policy.converged(&[0.5, 0.505]), "window={window}");
            assert!(!policy.converged(&[0.5, 0.52]), "window={window}");
        }
    }

    #[test]
    fn convergence_comparison_is_strict() {
        let policy = ConvergencePolicy { window: 2, min_improvement: 0.01 };
        // A gain of exactly `min_improvement` still counts as progress.
        assert!(!policy.converged(&[0.50, 0.51]));
        assert!(policy.converged(&[0.50, 0.50999]));
        // With zero threshold a gain of exactly zero (a flat window)
        // still counts as progress; only strict regression converges.
        let zero = ConvergencePolicy { window: 2, min_improvement: 0.0 };
        assert!(!zero.converged(&[0.5, 0.5]));
        assert!(zero.converged(&[0.5, 0.4]));
        assert!(!zero.converged(&[0.5, 0.5000001]));
    }

    #[test]
    fn convergence_regression_counts_as_plateau() {
        let policy = ConvergencePolicy { window: 3, min_improvement: 0.01 };
        // Falling accuracy is "no progress", not "keep training".
        assert!(policy.converged(&[0.6, 0.55, 0.5]));
        // The best of the trailing entries is compared, not the last:
        // a spike inside the window counts as progress even if the
        // final entry fell back.
        assert!(!policy.converged(&[0.5, 0.58, 0.4]));
    }

    #[test]
    fn convergence_ignores_history_older_than_the_window() {
        let policy = ConvergencePolicy { window: 3, min_improvement: 0.01 };
        // Strong early gains don't postpone convergence once the
        // trailing window is flat.
        assert!(policy.converged(&[0.1, 0.3, 0.5, 0.501, 0.502]));
        // And a long flat prefix doesn't force convergence while the
        // trailing window is still improving.
        assert!(!policy.converged(&[0.5, 0.5, 0.5, 0.5, 0.55]));
    }

    #[test]
    fn convergence_stops_training_early() {
        let (mut setup, mut config) = tiny_world();
        config.max_rounds = 200;
        config.eval_every = 1;
        // Generous plateau detector: stop when 5 evaluations gain < 5%.
        config.convergence =
            Some(ConvergencePolicy { window: 5, min_improvement: 0.05 });
        let mut selector = RandomSelector { rng: Rng::seed_from_u64(7) };
        let history =
            run_federated(&mut setup, &config, &mut selector, &MaxFrequency).unwrap();
        assert!(history.len() < 200, "never converged");
        assert!(history.len() >= 5);
    }

    #[test]
    fn battery_and_convergence_configs_are_validated() {
        let c = TrainingConfig {
            battery_capacity: Some(Joules::ZERO),
            ..TrainingConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TrainingConfig {
            convergence: Some(ConvergencePolicy { window: 1, min_improvement: 0.1 }),
            ..TrainingConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TrainingConfig {
            convergence: Some(ConvergencePolicy { window: 3, min_improvement: -0.5 }),
            ..TrainingConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn checkpoint_interval_zero_is_rejected_by_validate() {
        let c = TrainingConfig {
            checkpoint: Some(CheckpointConfig {
                dir: "/tmp/ck".into(),
                interval: 0,
                halt_after: None,
            }),
            ..TrainingConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("checkpoint.interval"), "{err}");
    }

    #[test]
    fn checkpoint_config_is_excluded_from_the_fingerprint() {
        let plain = TrainingConfig::default();
        let checkpointed = TrainingConfig {
            checkpoint: Some(CheckpointConfig::new("/tmp/ck")),
            ..TrainingConfig::default()
        };
        // Resume compares fingerprints; the checkpoint cadence itself
        // (like threads and trace shape) must not change run identity.
        assert_eq!(config_fingerprint(&plain), config_fingerprint(&checkpointed));
    }

    #[test]
    fn identical_seeds_reproduce_identical_histories() {
        let run = || {
            let (mut setup, config) = tiny_world();
            let mut selector = RandomSelector { rng: Rng::seed_from_u64(9) };
            run_federated(&mut setup, &config, &mut selector, &MaxFrequency).unwrap()
        };
        assert_eq!(run(), run());
    }
}

//! Resume determinism: a run interrupted at round `k` and resumed
//! from its checkpoint must be indistinguishable — bit-for-bit — from
//! the run that was never interrupted, at every worker count, with
//! faults enabled and disabled, in full and digest trace modes. The
//! continued history, the Sim-class metrics registry, and the trace
//! tail (span ids included; wall clocks scrubbed) are all pinned, and
//! so are the stop conditions a resume derives from the history: the
//! training deadline and the convergence test.

use std::path::PathBuf;

use detrand::Rng;
use fl_sim::checkpoint::CheckpointConfig;
use fl_sim::dataset::{DatasetConfig, SyntheticTask};
use fl_sim::faults::FaultConfig;
use fl_sim::frequency::MaxFrequency;
use fl_sim::history::TrainingHistory;
use fl_sim::partition::Partition;
use fl_sim::runner::{
    run_federated_traced, ConvergencePolicy, FederatedSetup, TrainingConfig,
};
use fl_sim::selection::{ClientSelector, SelectionContext, SelectorSnapshot};
use fl_sim::FlError;
use helcfl_telemetry::{fnv1a_hex, MemorySink, MetricsRegistry, Telemetry};
use mec_sim::device::DeviceId;
use mec_sim::population::PopulationBuilder;
use mec_sim::units::Joules;

/// A selector with real cross-round state (its RNG), so resume has to
/// restore something: dropping the snapshot would fork the selection
/// sequence at round `k + 1` and every assertion below would trip.
struct SeededRandom {
    rng: Rng,
}

impl ClientSelector for SeededRandom {
    fn name(&self) -> &'static str {
        "seeded-random"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> fl_sim::Result<Vec<DeviceId>> {
        let mut ids: Vec<DeviceId> = ctx.devices.ids().collect();
        self.rng.shuffle(&mut ids);
        ids.truncate(ctx.target);
        Ok(ids)
    }

    fn snapshot(&self) -> SelectorSnapshot {
        SelectorSnapshot { rng_state: Some(self.rng.state()), ..SelectorSnapshot::default() }
    }

    fn restore(&mut self, snap: &SelectorSnapshot) -> fl_sim::Result<()> {
        if let Some(state) = snap.rng_state {
            self.rng = Rng::from_state(state);
        }
        Ok(())
    }
}

fn world_config(
    threads: usize,
    faults: bool,
    digest: Option<usize>,
    checkpoint: Option<CheckpointConfig>,
) -> TrainingConfig {
    TrainingConfig {
        max_rounds: 6,
        fraction: 0.4,
        model_dims: vec![10, 12, 4],
        learning_rate: 0.4,
        local_epochs: 1,
        batch_size: 16,
        threads,
        eval_every: 2,
        seed: 42,
        battery_capacity: Some(Joules::new(60.0)),
        faults: if faults {
            FaultConfig { crash_rate: 0.3, ..FaultConfig::none() }
        } else {
            FaultConfig::none()
        },
        digest_exemplars: digest,
        checkpoint,
        ..TrainingConfig::default()
    }
}

fn run_result(
    config: &TrainingConfig,
) -> fl_sim::Result<(TrainingHistory, MetricsRegistry, Vec<String>)> {
    let task = SyntheticTask::generate(DatasetConfig {
        num_classes: 4,
        feature_dim: 10,
        train_samples: 300,
        test_samples: 120,
        seed: 5,
        ..DatasetConfig::default()
    })
    .unwrap();
    let pop = PopulationBuilder::paper_default().num_devices(10).seed(6).build().unwrap();
    let partition = Partition::iid(300, 10, 7).unwrap();
    let mut setup = FederatedSetup::new(pop, &task, &partition, config).unwrap();
    let memory = MemorySink::new();
    let tele = Telemetry::with_sink(memory.clone());
    let mut selector = SeededRandom { rng: Rng::seed_from_u64(9) };
    let history =
        run_federated_traced(&mut setup, config, &mut selector, &MaxFrequency, &tele)?;
    let sim = tele.snapshot().deterministic();
    tele.finish();
    Ok((history, sim, memory.lines()))
}

fn run(config: &TrainingConfig) -> (TrainingHistory, MetricsRegistry, Vec<String>) {
    run_result(config).unwrap()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helcfl_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Zeroes the digit run after each wall-clock key so traces from
/// separate processes/runs compare byte-for-byte. Span ids are NOT
/// scrubbed: a resumed tail must continue the original id sequence.
fn scrub_clocks(line: &str) -> String {
    let mut out = line.to_string();
    for key in ["\"t_us\":", "\"dur_us\":"] {
        if let Some(pos) = out.find(key) {
            let start = pos + key.len();
            let end = out[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(out.len(), |e| start + e);
            if end > start {
                out.replace_range(start..end, "0");
            }
        }
    }
    out
}

/// The per-round slice of a trace: everything except the manifest, the
/// pool_resolved / kernels_resolved preamble, and the trailing metrics
/// line.
fn round_lines(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| {
            !l.contains(r#""type":"run_manifest""#)
                && !l.contains(r#""name":"pool_resolved""#)
                && !l.contains(r#""name":"kernels_resolved""#)
                && !l.starts_with(r#"{"type":"metrics""#)
        })
        .map(|l| scrub_clocks(l))
        .collect()
}

fn fnv_of(value: &impl std::fmt::Debug) -> String {
    fnv1a_hex(format!("{value:?}").as_bytes())
}

/// The full matrix: 1/2/4/8 workers × faults on/off × full/digest
/// trace modes. For each cell, a run halted at round 3 (checkpoint
/// interval 2, so the halt exercises the forced off-cadence save) and
/// resumed must reproduce the uninterrupted run's history, Sim-class
/// registry, and per-round trace tail exactly.
#[test]
fn resume_matches_uninterrupted_runs_across_workers_faults_and_trace_modes() {
    for faults in [false, true] {
        for digest in [None, Some(2usize)] {
            let mut baseline: Option<(TrainingHistory, MetricsRegistry)> = None;
            for workers in [1usize, 2, 4, 8] {
                let label = format!("faults={faults} digest={digest:?} workers={workers}");
                let golden = run(&world_config(workers, faults, digest, None));
                assert_eq!(golden.0.len(), 6, "{label}: golden run length");
                // The uninterrupted run itself is worker-invariant —
                // the baseline every resumed variant is held to.
                match &baseline {
                    Some((h, m)) => {
                        assert_eq!(h, &golden.0, "{label}: golden history");
                        assert_eq!(m, &golden.1, "{label}: golden Sim registry");
                    }
                    None => baseline = Some((golden.0.clone(), golden.1.clone())),
                }

                let dir = scratch(&format!(
                    "matrix_{faults}_{}_{workers}",
                    digest.is_some()
                ));
                let halting = CheckpointConfig {
                    interval: 2,
                    halt_after: Some(3),
                    ..CheckpointConfig::new(&dir)
                };
                let partial = run(&world_config(workers, faults, digest, Some(halting)));
                assert_eq!(partial.0.len(), 3, "{label}: halted run length");

                let resuming =
                    CheckpointConfig { interval: 2, ..CheckpointConfig::new(&dir) };
                let resumed = run(&world_config(workers, faults, digest, Some(resuming)));

                assert_eq!(resumed.0, golden.0, "{label}: resumed history diverged");
                assert_eq!(resumed.1, golden.1, "{label}: resumed Sim registry diverged");
                assert_eq!(
                    fnv_of(&resumed.0),
                    fnv_of(&golden.0),
                    "{label}: history FNV"
                );

                // Trace-tail byte identity: head (rounds 1..=3 from the
                // halted run) plus tail (rounds 4..=6 from the resumed
                // run) reassemble the uninterrupted trace exactly —
                // span ids included.
                let full = round_lines(&golden.2);
                let head = round_lines(&partial.2);
                let tail = round_lines(&resumed.2);
                assert_eq!(
                    head.len() + tail.len(),
                    full.len(),
                    "{label}: trace line counts"
                );
                assert_eq!(head[..], full[..head.len()], "{label}: trace head diverged");
                assert_eq!(tail[..], full[head.len()..], "{label}: trace tail diverged");

                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Battery depletion state survives resume: with a budget small enough
/// that devices die, the resumed run's availability sequence matches
/// the uninterrupted one (a dropped battery image, or an alive mask
/// not rebuilt from it, would resurrect fleet members at round k+1).
#[test]
fn resume_preserves_depleted_devices_and_battery_charge() {
    let tight = |ckpt| TrainingConfig {
        battery_capacity: Some(Joules::new(5.0)),
        ..world_config(2, false, None, ckpt)
    };
    let golden = run(&tight(None));
    assert!(
        golden.0.records().iter().any(|r| r.alive_devices < 10),
        "battery budget never depleted a device; the test lost its teeth"
    );
    let dir = scratch("battery");
    let halting =
        CheckpointConfig { halt_after: Some(3), ..CheckpointConfig::new(&dir) };
    run(&tight(Some(halting)));
    let resumed = run(&tight(Some(CheckpointConfig::new(&dir))));
    assert_eq!(resumed.0, golden.0, "depletion state did not survive resume");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The resumed run's manifest carries the lineage fields — the
/// checkpoint's checksum and the starting round — while a fresh run's
/// manifest carries neither.
#[test]
fn resumed_manifest_carries_lineage_fields() {
    let dir = scratch("lineage");
    let halting = CheckpointConfig {
        interval: 2,
        halt_after: Some(3),
        ..CheckpointConfig::new(&dir)
    };
    let (_, _, fresh_lines) = run(&world_config(1, false, None, Some(halting)));
    let fresh_manifest = fresh_lines
        .iter()
        .find(|l| l.contains(r#""type":"run_manifest""#))
        .expect("fresh run emitted no manifest");
    assert!(!fresh_manifest.contains("resumed_from"), "{fresh_manifest}");
    assert!(!fresh_manifest.contains("start_round"), "{fresh_manifest}");

    let resuming = CheckpointConfig { interval: 2, ..CheckpointConfig::new(&dir) };
    let (_, _, resumed_lines) = run(&world_config(1, false, None, Some(resuming)));
    let manifest = resumed_lines
        .iter()
        .find(|l| l.contains(r#""type":"run_manifest""#))
        .expect("resumed run emitted no manifest");
    assert!(
        manifest.contains(r#""resumed_from":""#),
        "no resumed_from lineage: {manifest}"
    );
    assert!(
        manifest.contains(r#""start_round":4"#),
        "wrong or missing start_round: {manifest}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint from a different experiment is refused by name: wrong
/// seed and wrong semantic config each produce a `FlError::Checkpoint`
/// naming the differing identity field, never a silently forked run.
#[test]
fn resume_refuses_identity_mismatches_by_name() {
    let dir = scratch("refuse");
    let halting =
        CheckpointConfig { halt_after: Some(3), ..CheckpointConfig::new(&dir) };
    run(&world_config(1, false, None, Some(halting)));

    let mut wrong_seed = world_config(1, false, None, Some(CheckpointConfig::new(&dir)));
    wrong_seed.seed = 43;
    let err = run_result(&wrong_seed).unwrap_err();
    assert!(matches!(err, FlError::Checkpoint { .. }), "{err}");
    assert!(err.to_string().contains("seed differs"), "{err}");

    let mut wrong_config = world_config(1, false, None, Some(CheckpointConfig::new(&dir)));
    wrong_config.fraction = 0.5;
    let err = run_result(&wrong_config).unwrap_err();
    assert!(err.to_string().contains("config_fingerprint differs"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Interrupting twice (rounds 2 and 4) still converges on the golden
/// bits: each resume starts from the newest valid ring slot.
#[test]
fn repeated_interruptions_still_reproduce_the_golden_history() {
    let golden = run(&world_config(2, true, None, None));
    let dir = scratch("repeat");
    for halt in [2usize, 4] {
        let halting = CheckpointConfig {
            halt_after: Some(halt),
            ..CheckpointConfig::new(&dir)
        };
        let partial = run(&world_config(2, true, None, Some(halting)));
        assert_eq!(partial.0.len(), halt);
    }
    let finished = run(&world_config(2, true, None, Some(CheckpointConfig::new(&dir))));
    assert_eq!(finished.0, golden.0, "twice-interrupted history diverged");
    assert_eq!(finished.1, golden.1, "twice-interrupted Sim registry diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stop conditions survive resume: a training deadline (Eq. 14)
/// and a convergence policy each end the run early, at a round the
/// resumed run must reproduce from the history alone — its cumulative
/// time for the deadline, its evaluated accuracies for the plateau
/// test. Halting before the stop and resuming yields the uninterrupted
/// history, and so does rerunning a ring whose last checkpoint was
/// written at the stopping round itself.
#[test]
fn resume_reproduces_deadline_and_convergence_stops() {
    let unbounded = run(&world_config(2, true, None, None)).0;
    assert_eq!(unbounded.len(), 6);
    // Four rounds fit under the deadline; the fifth would start past it.
    let deadline = unbounded.records()[3].cumulative_time;
    let mut by_deadline = world_config(2, true, None, None);
    by_deadline.deadline = Some(deadline);
    let mut by_convergence = world_config(2, true, None, None);
    // Any two evaluations (rounds 2 and 4) count as a plateau.
    by_convergence.convergence = Some(ConvergencePolicy { window: 2, min_improvement: 1.0 });
    for (label, base) in [("deadline", by_deadline), ("convergence", by_convergence)] {
        let config = |checkpoint| TrainingConfig { checkpoint, ..base.clone() };
        let golden = run(&config(None));
        assert_eq!(golden.0.len(), 4, "{label}: the stop must end the run early");

        let dir = scratch(&format!("stop_{label}"));
        let halting = CheckpointConfig { halt_after: Some(2), ..CheckpointConfig::new(&dir) };
        assert_eq!(run(&config(Some(halting))).0.len(), 2, "{label}: halted run length");
        let resumed = run(&config(Some(CheckpointConfig::new(&dir))));
        assert_eq!(resumed.0, golden.0, "{label}: resumed history diverged");
        assert_eq!(resumed.1, golden.1, "{label}: resumed Sim registry diverged");

        // The ring now ends at the stopping round: a rerun resumes
        // there and must stop at once instead of training on.
        let rerun = run(&config(Some(CheckpointConfig::new(&dir))));
        assert_eq!(rerun.0, golden.0, "{label}: rerun after the stop trained on");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

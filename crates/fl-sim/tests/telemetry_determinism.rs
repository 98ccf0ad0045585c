//! Telemetry must be a pure observer: the `TrainingHistory` a run
//! produces is bit-identical whatever sink is attached and however
//! many worker threads carry the round — and the *deterministic*
//! (Sim-class) slice of the merged metrics registry is itself
//! bit-identical across thread counts.

use helcfl_telemetry::analyze::Trace;
use helcfl_telemetry::audit::{audit, AuditConfig};
use helcfl_telemetry::diff::{diff_traces, DiffConfig};
use helcfl_telemetry::{MemorySink, MetricsRegistry, Telemetry};

use fl_sim::dataset::{DatasetConfig, SyntheticTask};
use fl_sim::frequency::MaxFrequency;
use fl_sim::history::TrainingHistory;
use fl_sim::partition::Partition;
use fl_sim::runner::{run_federated_traced, FederatedSetup, TrainingConfig};
use fl_sim::selection::{ClientSelector, SelectionContext};
use mec_sim::device::DeviceId;
use mec_sim::population::PopulationBuilder;

/// Deterministic rotating-window selector (no selection RNG).
struct Rotating;

impl ClientSelector for Rotating {
    fn name(&self) -> &'static str {
        "rotating"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> fl_sim::Result<Vec<DeviceId>> {
        let ids: Vec<DeviceId> = ctx.devices.ids().collect();
        let n = ids.len();
        Ok((0..ctx.target).map(|k| ids[(ctx.round + k) % n]).collect())
    }
}

fn run_with(threads: usize, tele: &Telemetry) -> TrainingHistory {
    run_cfg(threads, None, tele)
}

fn run_cfg(threads: usize, digest_exemplars: Option<usize>, tele: &Telemetry) -> TrainingHistory {
    let config = TrainingConfig {
        max_rounds: 5,
        fraction: 0.4,
        model_dims: vec![10, 12, 4],
        learning_rate: 0.4,
        local_epochs: 2,
        batch_size: 16,
        threads,
        eval_every: 2,
        seed: 42,
        digest_exemplars,
        ..TrainingConfig::default()
    };
    let task = SyntheticTask::generate(DatasetConfig {
        num_classes: 4,
        feature_dim: 10,
        train_samples: 300,
        test_samples: 600,
        seed: 5,
        ..DatasetConfig::default()
    })
    .unwrap();
    let pop = PopulationBuilder::paper_default().num_devices(10).seed(6).build().unwrap();
    let partition = Partition::iid(300, 10, 7).unwrap();
    let mut setup = FederatedSetup::new(pop, &task, &partition, &config).unwrap();
    run_federated_traced(&mut setup, &config, &mut Rotating, &MaxFrequency, tele).unwrap()
}

/// Sim-class snapshot of a run's merged registry at `threads` workers.
fn sim_registry(threads: usize) -> (TrainingHistory, MetricsRegistry) {
    let tele = Telemetry::metrics_only();
    let history = run_with(threads, &tele);
    (history, tele.snapshot().deterministic())
}

/// Every sink choice (none, metrics-only, memory-backed event stream,
/// a real JSONL file) yields the same bits at 1 and 4 threads.
#[test]
fn histories_bit_identical_across_sinks_and_thread_counts() {
    let baseline = run_with(1, &Telemetry::disabled());
    for threads in [1usize, 4] {
        assert_eq!(
            baseline,
            run_with(threads, &Telemetry::disabled()),
            "disabled, {threads} threads"
        );
        assert_eq!(
            baseline,
            run_with(threads, &Telemetry::metrics_only()),
            "metrics-only, {threads} threads"
        );
        let memory = MemorySink::new();
        let tele = Telemetry::with_sink(memory.clone());
        assert_eq!(baseline, run_with(threads, &tele), "memory sink, {threads} threads");
        assert!(
            memory.lines().iter().any(|l| l.contains(r#""name":"round""#)),
            "memory sink captured no round spans"
        );

        let path = std::env::temp_dir()
            .join(format!("helcfl_tele_determinism_{threads}.jsonl"));
        let tele = Telemetry::to_file(&path).unwrap();
        assert_eq!(baseline, run_with(threads, &tele), "jsonl sink, {threads} threads");
        tele.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""name":"round""#), "jsonl sink wrote no round spans");
        for line in text.lines() {
            helcfl_telemetry::json::validate(line)
                .unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// The Sim-class registry slice is a pure function of the simulation:
/// merging per-worker registries in fixed order makes it bit-identical
/// for 1, 3, and 4 workers (PartialEq on histograms compares exact
/// bucket maps and exact f64 min/max).
#[test]
fn deterministic_metrics_bit_identical_across_thread_counts() {
    let (history1, sim1) = sim_registry(1);
    for threads in [3usize, 4] {
        let (history_n, sim_n) = sim_registry(threads);
        assert_eq!(history1, history_n, "{threads} threads changed the history");
        assert_eq!(sim1, sim_n, "{threads} threads changed Sim-class metrics");
    }
    // The slice is non-trivial: the round counter made it in …
    assert_eq!(sim1.counter("round.completed"), 5);
    // … and every Runtime-class lane (worker busy/idle) stayed out.
    assert!(sim1.iter().all(|(name, _, _)| !name.contains("worker")));
}

/// The persistent pool keeps histories bit-identical at worker counts
/// beyond the original 1/3/4 pins — including widths (8) that exceed
/// both the client fan-out of a round (4) and the machine's core
/// count, so some workers sit every job out.
#[test]
fn histories_bit_identical_at_wide_and_narrow_pools() {
    let (history1, sim1) = sim_registry(1);
    for threads in [2usize, 8] {
        let (history_n, sim_n) = sim_registry(threads);
        assert_eq!(history1, history_n, "{threads} threads changed the history");
        assert_eq!(sim1, sim_n, "{threads} threads changed Sim-class metrics");
    }
}

/// Two consecutive `run_federated_traced` calls — each building its
/// own pool, exercising the full spawn → train/eval → shutdown
/// lifecycle twice in one process — produce bit-identical histories.
/// Guards against pool state (parked threads, stale slots, epoch
/// counters) leaking across runs.
#[test]
fn consecutive_runs_reuse_pools_bit_identically() {
    for threads in [1usize, 3] {
        let tele = Telemetry::metrics_only();
        let first = run_with(threads, &tele);
        let second = run_with(threads, &tele);
        assert_eq!(first, second, "{threads} threads: reruns diverged");
    }
}

/// Zeroes the wall-clock fields (`t_us`, `dur_us`) of a trace line so
/// two separate runs — whose span ids and ordering are deterministic
/// but whose clocks are not — can be compared byte-for-byte.
/// Zeroes the digit run following each `key` occurrence in `line`.
fn scrub_keys(line: &str, keys: &[&str]) -> String {
    let mut out = line.to_string();
    for key in keys {
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

fn scrub_line(line: &str) -> String {
    // `pool_resolved` records the fan-out width by design; zero it so
    // traces from different worker counts can be compared.
    let keys: &[&str] = if line.contains(r#""name":"pool_resolved""#) {
        &["\"t_us\":", "\"dur_us\":", "\"workers\":", "\"requested\":"]
    } else if line.contains(r#""type":"run_manifest""#) {
        // The manifest records the worker count as *environment* by
        // design; identity fields must still match byte-for-byte.
        &["\"threads\":"]
    } else {
        &["\"t_us\":", "\"dur_us\":"]
    };
    scrub_keys(line, keys)
}

/// Scrubs clocks and drops the trailing metrics line, whose
/// Runtime-class entries (worker busy/idle, RSS) are wall-clock by
/// design; everything deterministic stays in.
fn scrubbed(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| !l.starts_with(r#"{"type":"metrics""#))
        .map(|l| scrub_line(l))
        .collect()
}

/// Digest-mode tracing is a pure trace-shape change: the history stays
/// bit-identical, the per-device fan-out shrinks to the sampled
/// exemplars, and every surviving `device_activity` span is tagged.
#[test]
fn digest_tracing_keeps_histories_bit_identical() {
    let baseline = run_with(1, &Telemetry::disabled());
    for threads in [1usize, 4] {
        let memory = MemorySink::new();
        let tele = Telemetry::with_sink(memory.clone());
        assert_eq!(
            baseline,
            run_cfg(threads, Some(2), &tele),
            "digest mode changed the history at {threads} threads"
        );
        let lines = memory.lines();
        let digests =
            lines.iter().filter(|l| l.contains(r#""name":"cohort_digest""#)).count();
        assert_eq!(digests, 5, "one cohort_digest per round");
        let activities: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains(r#""name":"device_activity""#))
            .collect();
        // 5 rounds × 2 exemplars, down from 5 × 4 selected devices.
        assert_eq!(activities.len(), 10, "{threads} threads");
        assert!(
            activities.iter().all(|l| l.contains(r#""exemplar":true"#)),
            "an untagged device_activity survived digest mode"
        );
    }
}

/// End-to-end audit closure: traces captured from real runs — full
/// fidelity and digest mode, healthy and faulted — all pass
/// `helcfl_telemetry::audit`, and the digest rounds are counted.
#[test]
fn digest_and_full_traces_from_real_runs_pass_audit() {
    for digest in [None, Some(2)] {
        let memory = MemorySink::new();
        let tele = Telemetry::with_sink(memory.clone());
        run_cfg(2, digest, &tele);
        tele.finish();
        let text = memory.lines().join("\n");
        let trace = Trace::parse(&text).unwrap();
        let report = audit(&trace, &AuditConfig::default()).unwrap();
        assert!(
            report.passed(),
            "digest={digest:?} run failed audit:\n{}",
            report.render()
        );
        assert_eq!(report.rounds_audited, 5);
        assert_eq!(report.rounds_digest, if digest.is_some() { 5 } else { 0 });
    }
}

/// Captures one traced run as parsed [`Trace`] plus its raw text.
fn traced_run(threads: usize, digest_exemplars: Option<usize>) -> (Trace, String) {
    let memory = MemorySink::new();
    let tele = Telemetry::with_sink(memory.clone());
    run_cfg(threads, digest_exemplars, &tele);
    tele.finish();
    let text = memory.lines().join("\n");
    let trace = Trace::parse(&text).unwrap();
    (trace, text)
}

/// A full-fidelity trace and a digest trace of the *same seeded run*
/// diff cleanly: the manifests are compatible (trace mode is
/// environment, not identity), the round-level aggregates agree, and
/// every Sim-class metric is a zero delta.
#[test]
fn full_and_digest_traces_of_one_run_diff_cleanly() {
    let (full, _) = traced_run(2, None);
    let (digest, _) = traced_run(2, Some(2));
    assert_eq!(full.manifests.len(), 1);
    assert_eq!(digest.manifests.len(), 1);
    assert_eq!(full.manifests[0].trace_mode, "full");
    assert_eq!(digest.manifests[0].trace_mode, "digest");

    let report = diff_traces(&full, &digest, &DiffConfig::default())
        .expect("full-vs-digest diff of one seeded run must be comparable");
    assert_eq!(
        report.round.base_count, report.round.cand_count,
        "round counts diverged between trace modes"
    );
    for m in &report.metrics {
        if m.class == "sim" {
            assert!(
                m.is_zero(),
                "Sim-class metric {} differs across trace modes:\n{}",
                m.name,
                report.render()
            );
        }
    }
}

/// Tampering with a manifest's identity (here: the seed) makes the
/// diff refuse the comparison, naming the mismatched field.
#[test]
fn diff_refuses_a_tampered_seed_with_a_named_reason() {
    let (baseline, text) = traced_run(1, None);
    let tampered_text: String = text
        .lines()
        .map(|l| {
            if l.contains(r#""type":"run_manifest""#) {
                l.replace(r#""seed":42"#, r#""seed":999983"#)
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(text, tampered_text, "tamper did not land");
    let tampered = Trace::parse(&tampered_text).unwrap();

    let err = diff_traces(&baseline, &tampered, &DiffConfig::default())
        .expect_err("mismatched seeds must refuse to diff");
    assert!(err.contains("seed"), "refusal does not name the seed: {err}");

    // `--ignore-manifest` is the explicit escape hatch.
    let cfg = DiffConfig { ignore_manifest: true };
    diff_traces(&baseline, &tampered, &cfg)
        .expect("ignore_manifest must bypass the provenance check");
}

/// The trace stream is the same bytes for 1/2/4/8 workers: every span
/// and event is emitted by the round loop on the calling thread, so
/// the pool's width is invisible in the output. Wall-clock span
/// fields are scrubbed before comparing.
#[test]
fn trace_streams_match_across_worker_counts_byte_for_byte() {
    let reference = {
        let memory = MemorySink::new();
        let tele = Telemetry::with_sink(memory.clone());
        run_with(1, &tele);
        tele.finish();
        scrubbed(&memory.lines())
    };
    assert!(!reference.is_empty());
    for workers in [1usize, 2, 4, 8] {
        let memory = MemorySink::new();
        let tele = Telemetry::with_sink(memory.clone());
        run_with(workers, &tele);
        tele.finish();
        assert_eq!(scrubbed(&memory.lines()), reference, "{workers} workers diverged");
    }
}

/// Back-to-back runs through one telemetry handle leave no residue:
/// the second run's stream is byte-identical to the first's.
#[test]
fn back_to_back_runs_emit_identical_streams() {
    let memory = MemorySink::new();
    let tele = Telemetry::with_sink(memory.clone());
    run_with(2, &tele);
    let first = scrubbed(&memory.lines());
    run_with(2, &tele);
    let all = scrubbed(&memory.lines());
    assert_eq!(all.len(), 2 * first.len());
    assert_eq!(&all[..first.len()], &first[..]);
    // Span (and parent) ids keep counting across runs on one handle;
    // zero both before comparing the two runs' stream shapes.
    let strip_ids = |l: &String| scrub_keys(l, &["\"id\":", "\"parent\":"]);
    let first_shape: Vec<String> = all[..first.len()].iter().map(strip_ids).collect();
    let second_shape: Vec<String> = all[first.len()..].iter().map(strip_ids).collect();
    assert_eq!(first_shape, second_shape, "second run's stream shape diverged");
}

#!/usr/bin/env bash
# Offline CI gate for the HELCFL reproduction workspace.
#
# The workspace has a zero-dependency policy: everything must build,
# test, and lint with no registry access. `--offline` makes any
# accidental external dependency an immediate hard failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> benchmark smoke test: bench_suite checks and pinned histories"
# bench_suite is a package of its own (empty [workspace]), so the
# workspace test run above does not reach it. Its smoke test runs every
# workload at reduced scale and checks the history digests pinned in
# bench_suite/pins.json and the committed golden CSV, so a kernel change
# that shifts any pinned history fails CI here, not only the benchmark.
cargo test --release --offline --manifest-path bench_suite/Cargo.toml

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> telemetry smoke: traced table1_delay + trace validation + audit"
# Run from a scratch directory: the smoke run's reduced-scale CSVs and
# trace must not clobber the full-scale artifacts tracked in results/.
repo_root="$PWD"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
(
  cd "$smoke_dir"
  HELCFL_TRACE=jsonl "$repo_root/target/release/table1_delay" --fast --setting iid
  "$repo_root/target/release/helcfl-trace" check results/trace_table1_delay.jsonl
  # Replay the trace against the analytic model: slack ≥ 0, TDMA
  # serialization, E ∝ f², and delay-neutrality where claimed.
  "$repo_root/target/release/helcfl-trace" audit results/trace_table1_delay.jsonl
)

echo "==> observability gates: self-diff, flame, series, manifest refusal"
# The smoke trace from the telemetry section, compared against itself,
# must be the identity: every phase and metric a zero delta, exit 0.
# The folded-stack and timeseries exports must produce non-empty
# artifacts from the same trace, and a manifest whose identity has
# been tampered with (the seed) must make the diff refuse with the
# field named.
(
  cd "$smoke_dir"
  trace=results/trace_table1_delay.jsonl
  "$repo_root/target/release/helcfl-trace" diff "$trace" "$trace" > diff_self.txt
  grep -q "zero deltas" diff_self.txt
  "$repo_root/target/release/helcfl-trace" flame "$trace" --out stacks.folded
  test -s stacks.folded
  "$repo_root/target/release/helcfl-trace" series "$trace" --json > series.json
  test -s series.json
  # Tamper only the manifest line: cohort_digest spans carry a seed
  # attribute of their own that must stay untouched.
  sed '/"type":"run_manifest"/s/"seed":[0-9]*/"seed":999983/' "$trace" > tampered.jsonl
  if "$repo_root/target/release/helcfl-trace" diff "$trace" tampered.jsonl \
      2> diff_refusal.txt; then
    echo "ERROR: diff accepted a tampered manifest" >&2
    exit 1
  fi
  grep -q "seed" diff_refusal.txt
)

echo "==> fault smoke: seeded injection run + trace validation + audit"
# A nonzero-rate fault plan must produce a trace that still satisfies
# the (fault-aware) theory audit: wasted energy reconciled, fault spans
# matching the metrics, delay-neutrality exempted only where a fault
# actually fired.
(
  cd "$smoke_dir"
  HELCFL_TRACE=jsonl "$repo_root/target/release/fault_sweep" --smoke
  "$repo_root/target/release/helcfl-trace" check results/trace_fault_sweep.jsonl
  "$repo_root/target/release/helcfl-trace" audit results/trace_fault_sweep.jsonl
)

echo "==> fault golden check: zero-fault engine equivalence"
# The fault-aware engine with an inert fault plan must reproduce the
# committed fault-free HELCFL history byte-for-byte.
"$repo_root/target/release/fault_sweep" --golden-check \
  "$repo_root/results/golden/history_fast_iid_helcfl.csv"

echo "==> perf gate: fresh --fast bench vs committed baseline"
# The committed baseline is full-scale and this smoke bench is --fast
# on whatever hardware CI lands on, so the gate still runs with loose
# tolerances — but markedly tighter than before the committed baseline
# was recorded on the CI host itself: a --fast candidate now has to
# stay within single-digit multiples of the full-scale numbers instead
# of merely within two orders of magnitude. The overhead budget is the
# loosest of all: relative telemetry overhead is regime-dependent —
# --fast rounds are ~12× shorter than full-scale ones, so the same
# fixed tracing cost reads as tens of percent here and under 1 % in
# the committed baseline. The self-gate against the identical file
# (default tolerances, 5 pp overhead) is the exit-0 criterion.
(
  cd "$smoke_dir"
  "$repo_root/target/release/bench_round_engine" --fast > /dev/null
  "$repo_root/target/release/helcfl-trace" gate \
    "$repo_root/results/BENCH_round_engine.json" results/BENCH_round_engine.json \
    --max-rps-drop-pct 80 --max-latency-growth-pct 500 --max-overhead-pp 75
  "$repo_root/target/release/helcfl-trace" gate \
    "$repo_root/results/BENCH_round_engine.json" "$repo_root/results/BENCH_round_engine.json"
)

echo "==> kernel gate: fresh --smoke bench vs committed baseline (SIMD + scalar)"
# Same-host, same-shape comparison (only the measurement budget
# differs). The gate runs once per HELCFL_SIMD mode against that
# mode's own committed baseline — the vectorized kernels against
# BENCH_kernels.json, the scalar reference oracle against
# BENCH_kernels_scalar.json — so a lost vectorization (auto-dispatch
# silently landing on the scalar path would read as a 1.5-14× drop) and
# a scalar-oracle regression are both caught. Tolerance is tightened
# from the old ±50% default to ±40%: timed-warmup calibration now
# gives sub-50µs kernels a real sample budget, so smoke-mode rates
# are far less noisy than when the gate was introduced. Each rate is
# the fastest of several interleaved passes, and each committed
# baseline holds, per kernel, the slowest of five full runs: the CI
# host has phases lasting seconds in which the dense kernels run at
# about half speed, and a baseline recorded outside one failed the
# gate on smoke runs inside one.
(
  cd "$smoke_dir"
  "$repo_root/target/release/bench_kernels" --smoke > /dev/null
  "$repo_root/target/release/helcfl-trace" gate \
    "$repo_root/results/BENCH_kernels.json" results/BENCH_kernels.json \
    --max-gflops-drop-pct 40
  HELCFL_SIMD=off "$repo_root/target/release/bench_kernels" --smoke > /dev/null
  "$repo_root/target/release/helcfl-trace" gate \
    "$repo_root/results/BENCH_kernels_scalar.json" results/BENCH_kernels.json \
    --max-gflops-drop-pct 40
  "$repo_root/target/release/helcfl-trace" gate \
    "$repo_root/results/BENCH_kernels.json" "$repo_root/results/BENCH_kernels.json"
)

echo "==> scalar determinism: fault golden check with SIMD forced off"
# The SIMD dispatch contract: kernel path selection is bit-invisible.
# The committed golden history must reproduce byte-for-byte with the
# scalar reference kernels pinned.
HELCFL_SIMD=off "$repo_root/target/release/fault_sweep" --golden-check \
  "$repo_root/results/golden/history_fast_iid_helcfl.csv"

echo "==> population gate: traced --smoke sweep + digest audit vs committed baseline"
# The committed baseline sweeps to Q = 10^7; the smoke candidate stops
# at 10^5 (the extra sizes become notes, not failures). Latencies at
# the shared sizes are single-digit to double-digit microseconds, so
# the latency tolerance is loose — the gate exists to catch the
# indexed selector losing its complexity class, not µs-level jitter.
# Memory per device is deterministic and gets a tight budget. The
# sweep runs in digest mode (--trace), and its cohort-digest trace
# must satisfy the same schema check and analytic audit as a
# full-fidelity federated trace; `watch` on the finished file proves
# the tail-follower sees the rounds and exits on the metrics line.
# Telemetry overhead is gated twice: the smoke candidate's absolute
# per-round trace cost against the committed baseline (shared sizes),
# and — via the self-gate — the committed report's relative overhead
# at Q ≥ 10^6 against the absolute 10% ceiling.
(
  cd "$smoke_dir"
  "$repo_root/target/release/bench_population" --smoke \
    --trace results/trace_population.jsonl > /dev/null
  "$repo_root/target/release/helcfl-trace" check results/trace_population.jsonl
  "$repo_root/target/release/helcfl-trace" audit results/trace_population.jsonl
  "$repo_root/target/release/helcfl-trace" watch results/trace_population.jsonl \
    --interval-ms 10
  "$repo_root/target/release/helcfl-trace" gate \
    "$repo_root/results/BENCH_population.json" results/BENCH_population.json \
    --max-latency-growth-pct 400 --max-bytes-growth-pct 50
  "$repo_root/target/release/helcfl-trace" gate \
    "$repo_root/results/BENCH_population.json" "$repo_root/results/BENCH_population.json"
)

echo "==> chaos gate: kill/resume determinism + checkpoint integrity"
# Real SIGKILLs at five seeded rounds, one torn checkpoint write that
# bypasses the atomic-rename protocol, then a clean resume: the final
# history must reproduce the committed golden byte-for-byte, and a
# bit-flipped checkpoint ring must be refused by checksum. The bin
# exits non-zero if any gate fails; --seed keeps the schedule pinned.
(
  cd "$smoke_dir"
  "$repo_root/target/release/chaos_resume" --smoke --seed 2022 \
    --golden "$repo_root/results/golden/history_fast_iid_helcfl.csv"
)

echo "==> ci.sh: all gates passed"

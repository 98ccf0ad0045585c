#!/usr/bin/env bash
# Offline CI gate for the HELCFL reproduction workspace.
#
# The workspace has a zero-dependency policy: everything must build,
# test, and lint with no registry access. `--offline` makes any
# accidental external dependency an immediate hard failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> doc references: every cited source file exists, every cited line is in range"
# DESIGN.md and README.md cite source files in backticks by a path
# suffix (`runner.rs`, `crates/core/tests/water_filling.rs`), and may
# add a line (`checkpoint.rs:120`). A suffix must end a tracked file's
# path at a `/`; a cited line must name one file and lie within it. A
# rename or a deletion that leaves a doc pointing at nothing fails
# here. bench_suite/README.md is not scanned: the benchmark package's
# files change only together with the benchmark itself, so a stale
# reference there could not be mended alongside the code it cites.
tracked_rs="$(git ls-files '*.rs')"
stale_refs=0
for doc in DESIGN.md README.md; do
  while IFS=: read -r doc_line ref; do
    ref="${ref//\`/}"
    path="${ref%%:*}"
    files="$(awk -v p="$path" '$0 == p || substr($0, length($0) - length(p)) == "/" p' \
      <<< "$tracked_rs")"
    if [[ -z "$files" ]]; then
      echo "ERROR: $doc:$doc_line cites \`$ref\`: no tracked file ends in $path" >&2
      stale_refs=1
    elif [[ "$ref" == *:* ]]; then
      cited="${ref##*:}"
      if [[ "$(wc -l <<< "$files")" -ne 1 ]]; then
        echo "ERROR: $doc:$doc_line cites \`$ref\`: $path names several files" >&2
        stale_refs=1
      elif (( cited < 1 || cited > $(wc -l < "$files") )); then
        echo "ERROR: $doc:$doc_line cites \`$ref\`: $files has $(wc -l < "$files") lines" >&2
        stale_refs=1
      fi
    fi
  done < <(grep -noE '`[A-Za-z0-9_./-]+\.rs(:[0-9]+)?`' "$doc")
done
if (( stale_refs )); then
  exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> rustdoc: every doc link resolves"
# A doc link to a deleted or private item, or a citation like [4] read
# as a link, is a warning; -D warnings makes it fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> examples: every root-package example runs to completion"
# The test step only compiles the examples. Running them catches an API
# change that still compiles but panics: energy_audit prints
# RoundTimeline::activities() and the Fig. 1 Gantt chart.
for example in examples/*.rs; do
  cargo run --release --offline -q --example "$(basename "$example" .rs)" > /dev/null
done

echo "==> benchmark smoke test: bench_suite checks and pinned histories"
# bench_suite is a package of its own (empty [workspace]), so the
# workspace test run above does not reach it. Its smoke test runs every
# workload at reduced scale and checks the history digests pinned in
# bench_suite/pins.json and the committed golden CSV, so a kernel change
# that shifts any pinned history fails CI here, not only the benchmark.
# Its timings are not gated here. `helcfl-trace gate` reads bench_suite
# reports at BENCHMARK.json's bounds, and results/BENCH_suite_smoke.json
# is the per-metric median of 12 --smoke runs on the 2-vCPU host, but
# a single smoke run failed that gate in 10 of 36 runs of an unchanged
# tree (ROADMAP item 4), so the step stays out until it is reliable.
cargo test --release --offline --manifest-path bench_suite/Cargo.toml

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> telemetry smoke: traced reproduce + trace validation + audit + watch"
# Run from a scratch directory: the smoke run's reduced-scale CSVs and
# trace must not clobber the full-scale artifacts tracked in results/.
repo_root="$PWD"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
(
  cd "$smoke_dir"
  # Every federated run of the fast IID run set enters the trace: the
  # lineup, HELCFL at f_max, the η, C and battery sweeps, and the four
  # federated schemes at every nonzero fault rate.
  HELCFL_TRACE=jsonl "$repo_root/target/release/reproduce" --fast --setting iid
  "$repo_root/target/release/helcfl-trace" check results/trace_reproduce.jsonl
  # Replay the trace against the analytic model: slack ≥ 0, TDMA
  # serialization, E ∝ f², and delay-neutrality where claimed. The
  # fault sweep's runs must reach the audit as faulted rounds: wasted
  # energy reconciled, fault spans matching the metrics, and
  # delay-neutrality exempted only where a fault actually fired.
  "$repo_root/target/release/helcfl-trace" audit results/trace_reproduce.jsonl > audit.txt
  cat audit.txt
  if ! grep -Eq ", [1-9][0-9]* faulted," audit.txt; then
    echo "ERROR: the reproduce trace holds no faulted round" >&2
    exit 1
  fi
  # `watch` is the only live view of a run: on the finished trace it
  # must report the training phases and exit on the metrics line.
  "$repo_root/target/release/helcfl-trace" watch results/trace_reproduce.jsonl \
    --interval-ms 10 > watch.txt
  grep -q local_update watch.txt
)

echo "==> observability gates: self-diff, flame, series, manifest and attribute refusals"
# The smoke trace from the telemetry section, compared against itself,
# must be the identity: every phase and metric a zero delta, exit 0.
# The folded-stack and timeseries exports must produce non-empty
# artifacts from the same trace, and a manifest whose identity has
# been tampered with (the seed), or whose schema_version does not fit
# 32 bits (4294967297 = 2^32 + 1, which a truncating cast would read
# as the current version 1), must make the diff refuse with the field
# named.
(
  cd "$smoke_dir"
  trace=results/trace_reproduce.jsonl
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
  sed '/"type":"run_manifest"/s/"schema_version":[0-9]*/"schema_version":4294967297/' \
    "$trace" > wide_schema.jsonl
  if "$repo_root/target/release/helcfl-trace" diff "$trace" wide_schema.jsonl \
      2> diff_refusal.txt; then
    echo "ERROR: diff accepted a schema_version beyond u32" >&2
    exit 1
  fi
  grep -q '"schema_version"' diff_refusal.txt
  # The auditor requires every attribute its producers always write: a
  # timeline whose makespan_s is not a number is refused by name, not
  # skipped. Only the first makespan_s in the trace is tampered.
  sed '0,/"makespan_s":[-+0-9.eE]*/s//"makespan_s":"x"/' "$trace" > bad_makespan.jsonl
  grep -q '"makespan_s":"x"' bad_makespan.jsonl
  if "$repo_root/target/release/helcfl-trace" audit bad_makespan.jsonl \
      > /dev/null 2> audit_refusal.txt; then
    echo "ERROR: audit accepted a non-numeric makespan_s" >&2
    exit 1
  fi
  grep -q '"makespan_s"' audit_refusal.txt
)

echo "==> kernel gate: fresh --smoke bench vs committed baseline (SIMD + scalar)"
# Same-host, same-shape comparison (only the measurement budget
# differs). The gate runs once per HELCFL_SIMD mode against that
# mode's own committed baseline — the vectorized kernels against
# BENCH_kernels.json, the scalar reference oracle against
# BENCH_kernels_scalar.json — so a lost vectorization and a
# scalar-oracle regression are both caught. Auto-dispatch silently
# landing on the scalar path reads as a 4-26× drop on the narrow and
# transposed shapes; the wide NN shapes (~1.4×) and matmul_nt (~1.1×,
# the scalar path runs the same pack-then-NN route) cannot show it.
# Each record carries its own bound (0.40 of the baseline GFLOP/s; see
# bench_kernels.rs).
(
  cd "$smoke_dir"
  "$repo_root/target/release/bench_kernels" --smoke > /dev/null
  "$repo_root/target/release/helcfl-trace" gate \
    "$repo_root/results/BENCH_kernels.json" results/BENCH_kernels.json
  HELCFL_SIMD=off "$repo_root/target/release/bench_kernels" --smoke > /dev/null
  "$repo_root/target/release/helcfl-trace" gate \
    "$repo_root/results/BENCH_kernels_scalar.json" results/BENCH_kernels.json
)

echo "==> scalar determinism: scheme goldens with SIMD forced off"
# The SIMD dispatch contract: kernel path selection is bit-invisible.
# Every lineup scheme's committed golden history must reproduce
# byte-for-byte with the scalar reference kernels pinned, with and
# without a never-firing round deadline. The workspace test step above
# already ran the same suite on the auto-dispatched kernels.
HELCFL_SIMD=off cargo test --release --offline -p helcfl-bench --test scheme_goldens

echo "==> population gate: traced --smoke sweep + digest audit vs committed baseline"
# The committed baseline sweeps to Q = 10^7; the smoke candidate stops
# at 10^5 (the extra sizes become notes, not failures). Each record
# carries its own bound: 4.0 on round p50/p99 (the gate catches the
# indexed selector losing its complexity class, not µs-level jitter)
# and 0.5 on the deterministic bytes per device. The sweep runs in
# digest mode (--trace); after measuring and printing every size it
# refuses itself, naming every Q ≤ 10^6 whose digest trace cost more
# than 89 µs per round, and writes no report; its cohort-digest trace
# must satisfy the same schema check and analytic audit as a
# full-fidelity federated trace; `watch` on the finished file proves
# the tail-follower sees the rounds and exits on the metrics line.
(
  cd "$smoke_dir"
  "$repo_root/target/release/bench_population" --smoke \
    --trace results/trace_population.jsonl > /dev/null
  "$repo_root/target/release/helcfl-trace" check results/trace_population.jsonl
  "$repo_root/target/release/helcfl-trace" audit results/trace_population.jsonl
  "$repo_root/target/release/helcfl-trace" watch results/trace_population.jsonl \
    --interval-ms 10
  "$repo_root/target/release/helcfl-trace" gate \
    "$repo_root/results/BENCH_population.json" results/BENCH_population.json
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

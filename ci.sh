#!/bin/sh
# Repo CI gate: release build, full test suite, lint-clean clippy,
# determinism/API-hygiene static analysis, experiment determinism and
# committed-artefact gates.
set -eu
cd "$(dirname "$0")"

# Determinism & API-hygiene gate runs FIRST: the protocol-flow rules
# (P1-P3, D7) plus the per-file rules must pass with zero unsuppressed
# violations against the checked-in baseline (which may only shrink --
# a stale entry fails too) before anything else is built or run.
# --stats keeps the unwrap budget trajectory visible across PRs, and
# the JSON stats document is a committed artefact: any drift in rule
# counts without a matching LINT_STATS.json update fails the gate.
cargo run -q -p lc-lint -- --workspace --baseline lint-baseline.txt --stats
cargo run -q -p lc-lint -- --workspace --baseline lint-baseline.txt --format json \
  > target/lint_stats.json
diff target/lint_stats.json LINT_STATS.json
rm -f target/lint_stats.json

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Benchmark build + tests: perfbench is its own Cargo workspace that
# drives crates/ through their public APIs only, so removing or
# renaming an API the benchmark uses fails here, not at benchmark time.
(cd perfbench && cargo test --release -q)

# Experiment gates. Everything derived from virtual time is
# deterministic per seed; only wall-clock values may differ between
# runs. On stdout every wall-clock column is a number (optionally
# k/M-scaled, optionally /s) followed by the word `wall`, and one mask
# covers them all. In a JSON artefact the lc_bench::json writer puts
# each wall-clock value alone on a `"wall_...": v` line, and only those
# lines are dropped. Every other byte of every output is diffed.
stable() {
  case $1 in
    *.stdout) sed -E 's/ *-?[0-9.]+[kM]?(\/s)? wall/ <wall>/' "$1" ;;
    *) sed -E '/^ *"wall_[a-z_]+": [^,]*,?$/d' "$1" ;;
  esac
}
same() { stable "$2" > target/ci.stable; stable "$1" | diff - "target/ci.stable"; }

# run BIN STEM ARGS...: run BIN with a leading `@` in any arg replaced
# by STEM (`@.json` -> STEM.json) and stdout in STEM.stdout. A non-zero
# exit (a panic, or the binary's own gate) fails ci before any masking.
run() {
  bin=$1 stem=$2
  shift 2
  rm -f "$stem".*
  for a do
    shift
    case $a in @*) a=$stem${a#@} ;; esac
    set -- "$@" "$a"
  done
  ./target/release/"$bin" "$@" > "$stem.stdout" || { echo "ci: $bin exited $?" >&2; exit 1; }
}

# twice BIN ARGS...: two runs (`@` = target/BIN_runN) must write the
# same set of files and agree on stdout and every artefact.
twice() {
  b=$1
  shift
  run "$b" "target/${b}_run1" "$@"
  run "$b" "target/${b}_run2" "$@"
  [ "$(ls target/"${b}"_run1.* | sed 's/_run1\././')" = "$(ls target/"${b}"_run2.* | sed 's/_run2\././')" ] ||
    { echo "ci: $b runs wrote different files" >&2; exit 1; }
  for f in target/"${b}"_run1.*; do
    same "$f" "target/${b}_run2.${f#target/"${b}"_run1.}"
  done
  rm -f target/"${b}"_run?.* target/ci.stable
}

# committed BIN BENCH ARGS...: one run (`@` = target/BIN_full) whose
# artefacts must equal the committed BENCH.* files, side files included.
committed() {
  b=$1 bench=$2
  shift 2
  run "$b" "target/${b}_full" "$@"
  for f in "$bench".*; do
    same "target/${b}_full.${f#"$bench".}" "$f"
  done
  rm -f target/"${b}"_full.* target/ci.stable
}

# E10: the same seeds reproduce the same faults, retries and recoveries.
twice e10_fault_tolerance
# E11: report plus both trace exports (span ids from per-node counters,
# timestamps from virtual time).
twice e11_observability @
# E12: the claimed msgs/query reduction is a checked artefact.
twice e12_cache_perf @.json
committed e12_cache_perf BENCH_e12 @.json
# E13 scale sweep: small-config double run; the full sweep (the
# 10^6-node point must complete) gates memory at <= 160 bytes of state
# per node at the largest hier point.
twice e13_scale_sweep --max-nodes 10000 @.json
committed e13_scale_sweep BENCH_e13 --gate-bytes-per-node 160 @.json
# E14 sharded registry: the former leader's recv bytes drop >= 3x at
# 4+ shards on the 1k campus with p99 no worse, in the smoke double run
# and in the full sweep (the 8k points must complete).
twice e14_sharded_registry --max-nodes 1024 --gate-reduction 3 @.json
committed e14_sharded_registry BENCH_e14 --gate-reduction 3 @.json

# Profiler-off byte-identity gate: with the observability stack at its
# defaults (profiler disabled, no sampling, no SLO monitors), the
# experiments without an artefact must stay identical across runs.
for e in e4_fault_tolerance e6_video_migration e7_cscw_fanout e8_grid_speedup f2_cscw_model; do
  twice $e
done

# E15 profiling: smoke double run (part-A sweep capped at 10^4) and the
# full sweep (the 10^5-node point must complete), flamegraph and
# timeline included. The binary exits non-zero if the profiler or the
# sampler ever perturbs a simulation. The <= 10% overhead gate is
# asserted on the committed artefact's wall_ key rather than
# re-measured here (CI wall clocks are too noisy to gate).
twice e15_profiling --max-nodes 10000 @.json
committed e15_profiling BENCH_e15 @.json
awk '/"n": 100000/{p=1} p && /"wall_overhead_pct"/{pct=$2+0; exit} END{if (pct > 10) {print "e15: committed overhead " pct "% > 10%"; exit 1}}' BENCH_e15.json

# E16 open-loop capacity: the binary exits non-zero when the overload
# gates fail (post-knee goodput with shedding >= 80% of the knee while
# the no-shedding baseline collapses below 50%; hot replication lifts
# capacity >= 1.3x with at least one replica spawned). The committed
# headline knee may not drift below 5000 op/s (the worker's theoretical
# draw rate).
twice e16_capacity @.json
committed e16_capacity BENCH_e16 @.json
awk '/"headline_knee_goodput_per_sec"/{g=$2+0; exit} END{if (g < 5000) {print "e16: committed knee goodput " g " < 5000 op/s"; exit 1}}' BENCH_e16.json

echo "ci: all green"

#!/bin/sh
# Repo CI gate: release build, full test suite, lint-clean clippy,
# determinism/API-hygiene static analysis, fault-injection determinism.
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

# Fault-injection determinism gate: the same seeds must reproduce the
# same faults, retries and recoveries byte-for-byte (E10 prints only
# virtual-time/count columns, so any diff is a real regression).
./target/release/e10_fault_tolerance > /tmp/e10_run1.txt
./target/release/e10_fault_tolerance > /tmp/e10_run2.txt
diff /tmp/e10_run1.txt /tmp/e10_run2.txt
rm -f /tmp/e10_run1.txt /tmp/e10_run2.txt

# Observability determinism gate: two e11 runs must agree byte-for-byte
# on the report and on both trace exports (span ids come from per-node
# counters, timestamps from virtual time -- no wall clock, no RNG in
# the tracer).
./target/release/e11_observability target/e11_run1 > /tmp/e11_run1.txt
./target/release/e11_observability target/e11_run2 > /tmp/e11_run2.txt
diff /tmp/e11_run1.txt /tmp/e11_run2.txt
diff target/e11_run1.trace.jsonl target/e11_run2.trace.jsonl
diff target/e11_run1.trace.json target/e11_run2.trace.json
rm -f /tmp/e11_run1.txt /tmp/e11_run2.txt target/e11_run?.trace.*

# Cache/coalescing determinism gate: two e12 runs must agree
# byte-for-byte on the report and the JSON summary, and the summary
# must match the committed BENCH_e12.json (the claimed msgs/query
# reduction is a checked artefact, not prose).
./target/release/e12_cache_perf target/e12_run1.json > /tmp/e12_run1.txt
./target/release/e12_cache_perf target/e12_run2.json > /tmp/e12_run2.txt
diff /tmp/e12_run1.txt /tmp/e12_run2.txt
diff target/e12_run1.json target/e12_run2.json
diff target/e12_run1.json BENCH_e12.json
rm -f /tmp/e12_run1.txt /tmp/e12_run2.txt target/e12_run?.json

# Scale-sweep gates (E13). Small-config double run: everything except
# the wall-marked throughput lines/keys must be byte-identical.
./target/release/e13_scale_sweep --max-nodes 10000 target/e13_run1.json \
  | sed -E 's/ *[0-9.]+(M|k)?\/s wall/ <wall>/' > /tmp/e13_run1.txt
./target/release/e13_scale_sweep --max-nodes 10000 target/e13_run2.json \
  | sed -E 's/ *[0-9.]+(M|k)?\/s wall/ <wall>/' > /tmp/e13_run2.txt
diff /tmp/e13_run1.txt /tmp/e13_run2.txt
grep -v wall_ target/e13_run1.json > target/e13_run1.stable
grep -v wall_ target/e13_run2.json > target/e13_run2.stable
diff target/e13_run1.stable target/e13_run2.stable
# Full sweep (the 10^6-node point must complete) with the memory gate:
# the largest hier point may not exceed 160 bytes of state per node.
# Simulated columns must match the committed BENCH_e13.json artefact.
./target/release/e13_scale_sweep --gate-bytes-per-node 160 target/e13_full.json > /dev/null
grep -v wall_ target/e13_full.json > target/e13_full.stable
grep -v wall_ BENCH_e13.json > target/e13_committed.stable
diff target/e13_full.stable target/e13_committed.stable
rm -f /tmp/e13_run1.txt /tmp/e13_run2.txt target/e13_run?.json target/e13_*.stable target/e13_full.json

# Sharded-registry gates (E14). Smoke double run at the 1k campus:
# everything except the wall-marked columns/keys must be
# byte-identical, and the hotspot gate must hold (the former leader's
# recv bytes drop >= 3x at 4+ shards with p99 no worse).
./target/release/e14_sharded_registry --max-nodes 1024 --gate-reduction 3 target/e14_run1.json \
  | sed -E 's/ *[0-9.]+ wall/ <wall> wall/' > /tmp/e14_run1.txt
./target/release/e14_sharded_registry --max-nodes 1024 --gate-reduction 3 target/e14_run2.json \
  | sed -E 's/ *[0-9.]+ wall/ <wall> wall/' > /tmp/e14_run2.txt
diff /tmp/e14_run1.txt /tmp/e14_run2.txt
grep -v wall_ target/e14_run1.json > target/e14_run1.stable
grep -v wall_ target/e14_run2.json > target/e14_run2.stable
diff target/e14_run1.stable target/e14_run2.stable
# Full sweep (the 8k points must complete); simulated columns must
# match the committed BENCH_e14.json artefact.
./target/release/e14_sharded_registry --gate-reduction 3 target/e14_full.json > /dev/null
grep -v wall_ target/e14_full.json > target/e14_full.stable
grep -v wall_ BENCH_e14.json > target/e14_committed.stable
diff target/e14_full.stable target/e14_committed.stable
rm -f /tmp/e14_run1.txt /tmp/e14_run2.txt target/e14_run?.json target/e14_*.stable target/e14_full.json

# Profiler-off byte-identity gate: with the observability stack at its
# defaults (profiler disabled, no sampling, no SLO monitors -- exactly
# how E1-E14 run), the fully-deterministic experiment binaries must
# stay byte-identical across runs. The wall-marked experiments are
# covered by the masked double runs above; this loop pins the rest.
for e in e4_fault_tolerance e6_video_migration e7_cscw_fanout e8_grid_speedup f2_cscw_model; do
  ./target/release/$e > /tmp/ident_run1.txt
  ./target/release/$e > /tmp/ident_run2.txt
  diff /tmp/ident_run1.txt /tmp/ident_run2.txt
done
rm -f /tmp/ident_run1.txt /tmp/ident_run2.txt

# Profiling/observability gates (E15). Smoke double run (part-A sweep
# capped at 10^4): everything except the wall-marked overhead
# columns/keys must be byte-identical -- including the flamegraph and
# timeline artefacts, which carry only virtual-time weights. The binary
# itself exits non-zero if the profiler or the sampler ever perturbs a
# simulation (the `identical` columns).
./target/release/e15_profiling --max-nodes 10000 target/e15_run1.json \
  | sed -E 's/ *-?[0-9.]+ wall/ <wall>/' > /tmp/e15_run1.txt
./target/release/e15_profiling --max-nodes 10000 target/e15_run2.json \
  | sed -E 's/ *-?[0-9.]+ wall/ <wall>/' > /tmp/e15_run2.txt
diff /tmp/e15_run1.txt /tmp/e15_run2.txt
grep -v wall_ target/e15_run1.json > target/e15_run1.stable
grep -v wall_ target/e15_run2.json > target/e15_run2.stable
diff target/e15_run1.stable target/e15_run2.stable
diff target/e15_run1.flame.txt target/e15_run2.flame.txt
diff target/e15_run1.timeline.txt target/e15_run2.timeline.txt
# Full sweep (the 10^5-node point must complete); simulated columns and
# both artefacts must match the committed BENCH_e15 files. The <= 10%
# overhead gate is asserted on the committed artefact's wall_ key
# rather than re-measured here (CI wall clocks are too noisy to gate).
./target/release/e15_profiling target/e15_full.json > /dev/null
grep -v wall_ target/e15_full.json > target/e15_full.stable
grep -v wall_ BENCH_e15.json > target/e15_committed.stable
diff target/e15_full.stable target/e15_committed.stable
diff target/e15_full.flame.txt BENCH_e15.flame.txt
diff target/e15_full.timeline.txt BENCH_e15.timeline.txt
awk '/"n": 100000/{p=1} p && /"wall_overhead_pct"/{pct=$2+0; exit} END{if (pct > 10) {print "e15: committed overhead " pct "% > 10%"; exit 1}}' BENCH_e15.json
rm -f /tmp/e15_run1.txt /tmp/e15_run2.txt target/e15_run?.json target/e15_*.stable \
  target/e15_run?.flame.txt target/e15_run?.timeline.txt target/e15_full.*

# Open-loop capacity gates (E16). The report and JSON carry only
# virtual-time columns, so two runs must agree byte-for-byte, and the
# run must match the committed BENCH_e16.json artefact (headline knee
# included). The binary itself exits non-zero when the overload gates
# fail: post-knee goodput with shedding >= 80% of the knee while the
# no-shedding baseline collapses below 50%, and hot-replication lifts
# capacity >= 1.3x with at least one replica spawned.
./target/release/e16_capacity target/e16_run1.json > /tmp/e16_run1.txt
./target/release/e16_capacity target/e16_run2.json > /tmp/e16_run2.txt
diff /tmp/e16_run1.txt /tmp/e16_run2.txt
diff target/e16_run1.json target/e16_run2.json
diff target/e16_run1.json BENCH_e16.json
# Knee-regression gate on the committed artefact: the headline capacity
# may not drift below 5000 op/s (the worker's theoretical draw rate).
awk '/"headline_knee_goodput_per_sec"/{g=$2+0; exit} END{if (g < 5000) {print "e16: committed knee goodput " g " < 5000 op/s"; exit 1}}' BENCH_e16.json
rm -f /tmp/e16_run1.txt /tmp/e16_run2.txt target/e16_run?.json

echo "ci: all green"

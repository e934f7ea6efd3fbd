#!/usr/bin/env bash
# Full verification gate: release build, the whole workspace test suite,
# lints, formatting, rustdoc links, and the chaos suite under three fixed
# fault-storm seeds. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
# NB: plain `cargo test` at the root only tests the root `flowsql`
# package — `--workspace` is what runs the crate suites.
cargo test --workspace -q
# The end-to-end benchmark's tiny gate: every workload (in memory, large
# Orders, durable over paged storage on all three stacks) runs its
# correctness gate and emits every declared metric. e2ebench is a
# workspace of its own, so the run above does not reach it.
cargo test --release --offline --manifest-path e2ebench/Cargo.toml
# Work budget: the running example's engine counters (scans, parses,
# binds, WAL, MVCC, pages, audit events) must equal the committed
# docs/outputs/WORK_running_example.json on every CPU count, so it runs
# again pinned to one CPU.
cargo test -q --test work_budget
taskset -c 0 cargo test -q --test work_budget
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
# e2ebench is a workspace of its own, so the two lines above never reach
# it: lint and format-check it by its manifest.
cargo clippy --offline --manifest-path e2ebench/Cargo.toml --all-targets -- -D warnings
cargo fmt --manifest-path e2ebench/Cargo.toml --all --check
# Rustdoc: broken or private intra-doc links fail the build, so docs
# cannot keep naming functions that no longer exist.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Chaos: the differential exactly-once suite under rotating storm seeds
# (each run adds CHAOS_SEED to the three built-in schedules), plus the
# compiled-join differential corpus (CHAOS_SEED adds a corpus seed), the
# property tests (CHAOS_SEED is XORed into every case seed) and the GC
# sweep differential (garbage-list sweep vs full walk; CHAOS_SEED adds a
# history seed).
for seed in 20260807 271828 31337; do
  CHAOS_SEED="$seed" cargo test -q --test chaos_exactly_once
  CHAOS_SEED="$seed" cargo test -q -p sqlkernel --test join_exec
  CHAOS_SEED="$seed" cargo test -q --test proptests
  CHAOS_SEED="$seed" cargo test -q -p sqlkernel --lib gc_garbage_list_sweep_matches_full_walk
done

# Crash recovery: kill-and-recover schedules across all three stacks
# (each run adds CRASH_SEED to the three built-in schedule seeds),
# plus the torn-group-append suite and the sharded 2PC storm (fleet
# deaths in every protocol window, merged bytes vs the unsharded run)
# under the same rotation.
for seed in 20260807 271828 31337; do
  CRASH_SEED="$seed" cargo test -q --test crash_recovery
  CRASH_SEED="$seed" cargo test -q --test paged_storage
  CRASH_SEED="$seed" cargo test -q -p sqlkernel --test group_commit_crash
  CRASH_SEED="$seed" CHAOS_SEED="$seed" cargo test -q --test sharded_2pc
done

# MVCC snapshot isolation: the differential snapshot suite (repeatable
# read, torn-commit scans, GC, shared handles) under the same chaos and
# crash seed rotations — its storm tests pick up both variables.
for seed in 20260807 271828 31337; do
  CHAOS_SEED="$seed" CRASH_SEED="$seed" cargo test -q --test mvcc_snapshots
done

# Bench smokes: every bench binary runs end-to-end on a short workload
# with its in-process asserts, and none rewrites its recorded JSON
# (BENCH_SMOKE shortens the workload and skips the write).
# - throughput: the parallel DML path runs at every worker count.
# - vectorized: the batch executor engaged, and its results are
#   byte-identical to the interpreter's.
# - concurrency: the read-while-write identity gate, a fixed transfer
#   budget under concurrent snapshot readers leaving bytes identical to
#   the serialized run, with no torn scans.
# - shards: both the single-shard fast path and cross-shard 2PC committed.
# - storage: paged recovery preserves every row at each checkpoint
#   interval.
# - joins: the compiled join executor engaged (hash join, index nested
#   loop, pushed predicates), byte-identical to the interpreter.
# - recovery: a short workload recovers from the log alone with every
#   row.
# - faults: every retry-wrapped statement completes, and the 0%-rate
#   plan injects no fault.
# - plan: compiled rows equal interpreted rows, and a plan was bound.
# - claims: by-reference and by-value copies leave identical sinks, and
#   inline and adapter queries return the same RowSet.
for b in throughput vectorized concurrency shards storage joins recovery faults plan claims; do
  BENCH_SMOKE=1 "./target/release/bench_$b" >/dev/null
done
# Every table in EXPERIMENTS.md section 2 is rendered from the committed
# docs/outputs/BENCH_*.json; a hand edit of either side fails here.
./target/release/experiments --check

echo "verify: OK"

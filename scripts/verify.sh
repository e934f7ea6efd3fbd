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
# compiled-join differential corpus (CHAOS_SEED adds a corpus seed).
for seed in 20260807 271828 31337; do
  CHAOS_SEED="$seed" cargo test -q --test chaos_exactly_once
  CHAOS_SEED="$seed" cargo test -q -p sqlkernel --test join_exec
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

# Bench smokes: prove the binaries run end-to-end without overwriting
# the recorded JSONs (BENCH_SMOKE shortens the workload and skips the
# write). bench_vectorized additionally asserts in-process that the
# batched executor engaged and that batched results are byte-identical
# to the interpreter.
BENCH_SMOKE=1 ./target/release/bench_throughput >/dev/null
BENCH_SMOKE=1 ./target/release/bench_vectorized >/dev/null
# bench_concurrency's smoke runs the read-while-write identity gate:
# a fixed transfer budget under concurrent snapshot readers must leave
# bytes identical to the serialized run, with no torn scans.
BENCH_SMOKE=1 ./target/release/bench_concurrency >/dev/null
# bench_shards' smoke asserts in-process that both the single-shard
# fast path and the cross-shard 2PC path committed.
BENCH_SMOKE=1 ./target/release/bench_shards >/dev/null
# bench_storage's smoke asserts in-process that paged recovery preserves
# every row at each checkpoint interval.
BENCH_SMOKE=1 ./target/release/bench_storage >/dev/null
# bench_joins' smoke asserts in-process that the compiled join executor
# engaged (hash join, index nested loop, pushed predicates) and that
# compiled join results are byte-identical to the interpreter's.
BENCH_SMOKE=1 ./target/release/bench_joins >/dev/null
# bench_recovery's smoke drives the durable open/replay path: it logs a
# short workload, recovers from the log alone and asserts in-process
# that every row came back.
BENCH_SMOKE=1 ./target/release/bench_recovery >/dev/null

echo "verify: OK"

#!/usr/bin/env sh
# Local CI gate: formatting, lints, release build, tests, then smoke-runs
# the examples and the overload sweep.
# Run from the repo root; fails fast on the first broken step.
set -eu

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q
# The root package's tests alone skip every member crate (proptests,
# fixture pins, commit-path equivalence, recovery); gate them all.
cargo test --workspace --release -q

# The examples double as end-to-end smoke tests of the public API.
for example in quickstart iot_edge scientific_workflow tamper_detection; do
    cargo run --release --example "$example"
done

# Exercises the bounded-admission-queue path end to end.
cargo run --release -p hyperprov-bench --bin table_overload -- --quick

# Exercises crash/restart recovery, Raft failover, partitions and the
# retrying client end to end.
cargo run --release -p hyperprov-bench --bin table_faults -- --quick

# Exercises multi-channel deployments, key->channel routing and
# scatter-gather queries end to end.
cargo run --release -p hyperprov-bench --bin table_sharding -- --quick

# Exercises the accelerated commit path (multi-lane VSCC, validate/apply
# pipelining, verification caches) end to end.
cargo run --release -p hyperprov-bench --bin table_commit_pipeline -- --quick

# Exercises the materialized provenance DAG index and the batched
# cross-shard graph queries end to end (index vs oracle walk).
cargo run --release -p hyperprov-bench --bin table_lineage -- --quick

# Exercises snapshot cutting, block-store pruning, deep-chain crash
# recovery and elastic membership (spare peer join + snapshot catch-up)
# end to end.
cargo run --release -p hyperprov-bench --bin table_recovery -- --quick

# Exercises the 10k-client scale machinery in miniature: per-submitter
# commit events and a lazily generated open-loop schedule (the full run
# is `table_scale` without --quick).
cargo run --release -p hyperprov-bench --bin table_scale -- --quick

# Perf-regression gate: reruns the quick BENCH-SIM reference workload and
# diffs it against the committed BENCH_sim.json baseline (tight tolerances
# for deterministic model metrics, loose ratio bounds for host wall-clock
# numbers). Exits non-zero on any out-of-tolerance metric; regenerate the
# baseline deliberately with `bench_regress --update`.
cargo run --release -p hyperprov-bench --bin bench_regress -- --quick

#!/usr/bin/env sh
# Tier-1 gate for blockdec (see README "CI gate"). Every step must pass
# before merge. Run from the repository root.
set -eux

cargo fmt --all -- --check
cargo build --release --workspace
cargo test -q --workspace
cargo test -q --workspace --doc
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Static analysis: blockdec-lint (docs/LINTS.md) enforces layering
# (std::fs only inside the ObjectStore backend — this replaced the old
# 4-file sed|grep stanza), determinism (no wall-clock reads, no std
# hash-collection iteration on result paths), the panic policy, and
# format/observability doc drift. Inline waivers are counted against the
# ratchet-down ceiling in ci/lint-baseline.txt; any unwaived finding is
# a non-zero exit. The JSON report is kept as a CI artifact.
mkdir -p target/ci-smoke
./target/release/blockdec-lint --json target/ci-smoke/lint.json \
    --baseline ci/lint-baseline.txt
test -s target/ci-smoke/lint.json
grep -q '"findings": \[' target/ci-smoke/lint.json

# Smoke: the matrix planner must exactly match the per-config baseline,
# the columnar (SoA) pipeline must bitwise-match the AoS pipeline, the
# parallel store->columns decode must bitwise-match the sequential one,
# AND the index/bloom-pruned filtered scans must bitwise-match a full
# scan plus filter — all while holding the checked-in bounds in
# ci/bench-baseline.txt (passed as --baseline), emitting a
# machine-readable bench summary (the binary exits non-zero on any
# divergence, breached bound, or malformed baseline line). The bounds
# are decode and pruned-scan throughput floors; a ceiling on the
# fraction of the store's bytes a pruned chain-year window scan fetches
# (the backend bench also proves SimBackend output is bitwise-identical
# to LocalFs); and, for the follow bench, which drives the live head
# feed (seeded forks) through the reorg-aware chain view, floors on its
# throughput, reorg coverage, and delta-vs-recompute speedup.
mkdir -p target/ci-smoke
./target/release/experiments --days 14 --bench-json target/ci-smoke/bench.json \
    --baseline ci/bench-baseline.txt
test -s target/ci-smoke/bench.json
grep -q '"matrix": \[' target/ci-smoke/bench.json
grep -q '"columnar": \[' target/ci-smoke/bench.json
grep -q '"decode": \[' target/ci-smoke/bench.json
grep -q '"pruned": \[' target/ci-smoke/bench.json
grep -q '"backend": \[' target/ci-smoke/bench.json
grep -q '"follow": \[' target/ci-smoke/bench.json

# Smoke: the paper's figures are the CLI's. The experiments harness
# writes each chain to a store and measures the columns it reads back;
# the same 30 days loaded with `blockdec load` and measured with
# `blockdec measure` must give the figures' CSVs byte for byte.
rm -rf target/ci-smoke/exp target/ci-smoke/exp-btc-store target/ci-smoke/exp-eth-store
./target/release/experiments --days 30 --out target/ci-smoke/exp fig1 fig10
./target/release/blockdec load --chain bitcoin --days 30 \
    --store target/ci-smoke/exp-btc-store
./target/release/blockdec load --chain ethereum --days 30 \
    --store target/ci-smoke/exp-eth-store
./target/release/blockdec measure --store target/ci-smoke/exp-btc-store \
    --metric gini --window fixed:day --out target/ci-smoke/exp-btc-gini.csv
./target/release/blockdec measure --store target/ci-smoke/exp-eth-store \
    --metric entropy --window sliding:6000:3000 \
    --out target/ci-smoke/exp-eth-entropy.csv
cmp target/ci-smoke/exp/fig1_bitcoin_gini_fixed_day.csv target/ci-smoke/exp-btc-gini.csv
cmp target/ci-smoke/exp/fig10_ethereum_entropy_sliding_day_6000.csv \
    target/ci-smoke/exp-eth-entropy.csv

# Smoke: durability. A freshly loaded store must fsck clean (exit 0),
# and the fsck self-test must inject, detect, and repair every fault
# class (exit 0; any miss is non-zero and fails the gate under set -e)
# and print exactly the lines pinned in ci/fsck-selftest.txt.
rm -rf target/ci-smoke/fsck-store target/ci-smoke/fsck-selftest
./target/release/blockdec load --chain bitcoin --days 2 --seed 11 \
    --store target/ci-smoke/fsck-store
./target/release/blockdec fsck --store target/ci-smoke/fsck-store
./target/release/blockdec fsck --self-test --store target/ci-smoke/fsck-selftest \
    > target/ci-smoke/fsck-selftest.txt
diff -u ci/fsck-selftest.txt target/ci-smoke/fsck-selftest.txt

# Smoke: compaction. Load a deliberately fragmented store (a segment
# every 150 blocks), compact it, and require (1) the segment count to
# shrink, (2) a clean fsck afterwards, and (3) the measured series over
# the compacted store to be byte-identical to the pre-compaction one.
rm -rf target/ci-smoke/compact-store
./target/release/blockdec load --chain bitcoin --days 4 --seed 11 \
    --store target/ci-smoke/compact-store --flush-every 150
./target/release/blockdec measure --store target/ci-smoke/compact-store \
    --metric gini,entropy,nakamoto --window fixed:day \
    --out target/ci-smoke/compact-before.csv
./target/release/blockdec compact --store target/ci-smoke/compact-store \
    | grep -q 'compacted .* segments into'
./target/release/blockdec fsck --store target/ci-smoke/compact-store
./target/release/blockdec measure --store target/ci-smoke/compact-store \
    --metric gini,entropy,nakamoto --window fixed:day \
    --out target/ci-smoke/compact-after.csv
cmp target/ci-smoke/compact-before.csv target/ci-smoke/compact-after.csv

# Smoke: live drill. Follow the same scenario as a live head feed with
# seeded forks (every 20 blocks, up to 3 deep) through the reorg-aware
# chain view, finalizing 6 below the head, with incremental metric
# deltas streamed as windows complete. The followed store must fsck
# clean, the delta CSV must be byte-identical to a batch measure over
# the batch-loaded store, and measuring the followed store must give
# the same bytes again.
rm -rf target/ci-smoke/follow-store target/ci-smoke/drill-store
./target/release/blockdec follow --chain bitcoin --days 4 --seed 11 \
    --fork-every 20 --max-fork 3 --finality 6 \
    --store target/ci-smoke/follow-store \
    --metric gini,entropy,nakamoto --window sliding:144:72 \
    --out target/ci-smoke/follow-deltas.csv
./target/release/blockdec fsck --store target/ci-smoke/follow-store
./target/release/blockdec load --chain bitcoin --days 4 --seed 11 \
    --store target/ci-smoke/drill-store
./target/release/blockdec measure --store target/ci-smoke/drill-store \
    --metric gini,entropy,nakamoto --window sliding:144:72 \
    --out target/ci-smoke/drill-batch.csv
cmp target/ci-smoke/follow-deltas.csv target/ci-smoke/drill-batch.csv
./target/release/blockdec measure --store target/ci-smoke/follow-store \
    --metric gini,entropy,nakamoto --window sliding:144:72 \
    --out target/ci-smoke/follow-batch.csv
cmp target/ci-smoke/follow-deltas.csv target/ci-smoke/follow-batch.csv

# Smoke: storage backends. The same measurement over the same store must
# be byte-identical whether reads go through plain LocalFs or through a
# throttled, flaky SimBackend (seeded latency + jitter, every 5th read
# failing once with a transient error that the retry layer absorbs).
./target/release/blockdec measure --store target/ci-smoke/compact-store \
    --metric gini,entropy,nakamoto --window fixed:day \
    --out target/ci-smoke/backend-local.csv
./target/release/blockdec measure --store target/ci-smoke/compact-store \
    --backend sim --sim-latency-us 50 --sim-jitter-us 20 \
    --sim-bandwidth-kbps 51200 --sim-fail-every 5 --sim-seed 42 \
    --metric gini,entropy,nakamoto --window fixed:day \
    --out target/ci-smoke/backend-sim.csv
cmp target/ci-smoke/backend-local.csv target/ci-smoke/backend-sim.csv
./target/release/blockdec fsck --store target/ci-smoke/compact-store \
    --backend sim --sim-latency-us 50 --sim-fail-every 5 --sim-seed 42

echo "ci.sh: all gates passed"

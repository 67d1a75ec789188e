#!/usr/bin/env bash
# Offline-friendly CI gate: everything here runs without network access
# (external dependencies are vendored as shims under shims/, see DESIGN.md).
# Usage: ./ci.sh [--quick]
#   --quick   skip the release build (debug build + tests + lints only)
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo build (debug, all targets)"
cargo build --workspace --all-targets --offline

step "cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "cargo test (workspace)"
cargo test --workspace --offline -q

# The chaos suite runs as part of the workspace tests above; this explicit
# pass re-runs every chaos/fault test by name so a failure is attributable
# at a glance. All injection seeds are fixed inside the tests.
step "chaos suite (fixed seeds)"
cargo test --workspace --offline -q chaos

# Same idea for the persist/cache layer: unit + property suites (LRU
# eviction, serialized round-trip, cache-vs-lineage equivalence under
# fixed-seed faults) re-run by name.
step "cache suite (fixed seeds)"
cargo test --workspace --offline -q cache

# And the observability layer: event-log golden tests (fixed-seed
# reproducibility, span pairing, timeline-vs-metrics reconciliation),
# the reconciliation property suite, and the EXPLAIN ANALYZE tests.
step "events suite (fixed seeds)"
cargo test --workspace --offline -q events
cargo test --workspace --offline -q explain_analyze

# The verified-optimizer gate: per-rule golden plans, the per-site
# differential equivalence fuzzer, and the mutation suite that proves the
# property checker and differential executor catch deliberately broken
# rules. Re-run by name so a rule regression is attributable at a glance.
step "verify-rules (golden + fuzzer + mutations)"
cargo test -p sparklite --offline -q --test rules_golden
cargo test -p sparklite --offline -q --test rule_fuzz
cargo test --offline -q --test cross_crate every_optimizer_rule

# Distributed-mode gate: protocol framing/codec round-trips, thread-mode
# cluster equivalence + lineage recovery (sparklite), then the real thing —
# worker *processes* spawned from the harness binary, exchanging shuffle
# blocks over TCP and surviving a SIGKILL mid-job (rumble-bench).
step "distributed suite (wire protocol + process executors)"
cargo test -p sparklite --offline -q --test dist
cargo test -p rumble-bench --offline -q --test dist_process

# Cluster-observability gate: executor stream-merge ordering (seq wins
# over skewed clocks, gaps and ring drops counted as lost), the
# interleaved/batched/clock-skewed merge property suite, the merged
# two-executor golden timeline (job table, :top lanes, worker process
# lanes in the Chrome trace), and the killed worker's cut-stream
# accounting. Re-run by name so a stream regression is attributable.
step "obs-dist suite (executor event streams + merged timelines)"
cargo test -p sparklite --offline -q --lib events::tests::stream_merge
cargo test -p sparklite --offline -q --test events skewed_executor_streams
cargo test -p sparklite --offline -q --test events merged_dist_timeline
cargo test -p sparklite --offline -q --test dist killed_worker

# Columnar-execution gate: the row-vs-columnar differential battery (200+
# random pipelines, both physical paths byte-compared through RowCodec)
# plus the batch kernel property suites (validity bitmaps, string arenas,
# gather under arbitrary selection vectors).
step "columnar suite (differential battery + kernel proptests)"
cargo test -p sparklite --offline -q --test columnar_diff
cargo test -p sparklite --offline -q --lib batch::tests

# Vectorized-aggregation gate: the hash-kernel group-by and normalized-key
# sort differentials against the row-major oracle plus the key-encoding
# property suites (order-equivalence to SortKey, group identity
# round-trips, kernel-vs-reference state equality).
step "agg suite (oracle differentials + key-encoding proptests)"
cargo test -p sparklite --offline -q --test columnar_diff group
cargo test -p sparklite --offline -q --lib batch::tests::sort
cargo test -p sparklite --offline -q --lib batch::tests::group
cargo test -p sparklite --offline -q --lib batch::tests::bucket_merge

# Top-K take gate: the scan-key battery's take arm (`take(n)` byte-equal
# to the `collect()` prefix and to the local path for n around both ends,
# plain, under 20% chaos and over two dist executors, with error parity),
# the one-job/no-shuffle/no-cache pin, and the bounded-selection helper's
# property test against sort-then-take. Re-run by name.
step "top-k suite (take arm + bounded-selection proptest)"
cargo test -p rumble-core --offline -q --test scan_keys -- scan_keys_match top_k_take
cargo test -p sparklite --offline -q --test proptest_rdd top_k
cargo test -p sparklite --offline -q --lib rdd::top_k

# The repo benchmark (perfbench/, its own cargo workspace) ships
# self-tests: at 1,500 objects they run group and sort on all three
# workloads and check every answer against the hand-tuned and naive
# references.
step "perfbench self-tests"
cargo test --offline --manifest-path perfbench/Cargo.toml

if [[ "$QUICK" -eq 0 ]]; then
  # --workspace: the harness smokes below run rumble-bench's binary, which
  # the root package alone does not build.
  step "cargo build --release"
  cargo build --release --offline --workspace

  # Smoke the cache figure end to end: the harness itself dies unless every
  # fault-free persisted configuration has warm <= cold, cache hits, and
  # results identical to the unpersisted run (also checked under 20% chaos).
  step "harness cache smoke"
  ./target/release/harness cache --tries 2

  # Smoke the traced harness figure: the run dies unless the event-derived
  # timeline reconciles exactly with the metrics snapshot, every JSONL
  # event-log line passes schema validation, and the Chrome trace parses.
  step "harness trace smoke"
  ./target/release/harness trace --tries 2

  # Smoke distributed mode end to end: the dist figure spawns 1/2/4 executor
  # processes, runs the Fig. 11 queries through them, and dies unless every
  # distributed run is byte-identical to the threaded baseline. The chaos
  # variant SIGKILLs a worker mid-shuffle and requires lineage recovery to
  # reproduce the baseline output exactly.
  step "harness dist smoke (process executors)"
  ./target/release/harness dist --tries 1

  step "harness chaos --kill-executor smoke"
  ./target/release/harness chaos --kill-executor --tries 1

  # Smoke the cluster-observability A/B end to end: two executor processes
  # stream their events back to the driver; the harness dies unless the
  # merged timeline reconciles exactly with the metrics snapshot, both
  # streams drain with zero lost events, the Chrome trace shows both
  # worker process lanes, and the measured overhead stays within the 3%
  # budget once it clears the run's own A/A noise floor.
  step "harness obs smoke (executor event streams)"
  ./target/release/harness obs --tries 2

  # Smoke the columnar A/B end to end: the harness dies unless the fused
  # batch pipeline is no slower than the row-major walk of the same plan
  # and both paths return byte-identical rows (BENCH_columnar.json records
  # the measured A/B).
  step "harness columnar smoke"
  ./target/release/harness columnar --tries 2

  # Smoke the vectorized aggregation end to end: the harness dies unless
  # the default path (hash-kernel group-by, normalized-key sort) and the
  # row-major oracle return byte-identical rows on every key distribution,
  # as do the 20% chaos re-run and the two-process executor run, and the
  # default run fed the kernel (BENCH_agg.json records the timings).
  step "harness agg smoke"
  ./target/release/harness agg --tries 2
fi

step "OK"

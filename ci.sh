#!/usr/bin/env bash
# The CI gate, runnable locally: formatting, lints, release build, tests.
#
# Cargo.lock policy: the workspace has no external crates, and its committed
# Cargo.lock lists only workspace members. Every cargo command that resolves
# the workspace runs with --locked --offline, so it fails if the lockfile is
# stale or if anything would need the registry.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --all -- --check
cargo clippy --workspace --all-targets --locked --offline -- -D warnings
cargo build --workspace --release --locked --offline
# Layering guard: the broker sits below the coordination service (only the
# cluster and shell use coord), so samzasql-kafka must not depend on it.
if cargo tree -p samzasql-kafka -e normal --prefix none --locked --offline | grep -q '^samzasql-coord '; then
  echo "ci.sh: samzasql-kafka depends on samzasql-coord" >&2
  exit 1
fi
# One metrics mechanism: every instrument is minted from the broker's
# registry when its owner is built, so no code copies handles in later.
if grep -rnE 'adopt_(counter|gauge|histogram)|register_into|bind_obs|bind_metrics|set_metrics_registry' crates src tests examples; then
  echo "ci.sh: metric handles copied into a registry after construction" >&2
  exit 1
fi
# Only the substrate the runtime calls: no test-only Kafka clients or ZooKeeper APIs.
if grep -rnwE 'Producer|Consumer|Partitioner|RecordMetadata|ConsumerRecord|offset_for_timestamp|CreateMode|poll_events|pause_delivery|watch_data|watch_children|BadVersion' crates src tests examples; then
  echo "ci.sh: a deleted test-only Kafka client or coordination API is back" >&2
  exit 1
fi
# The benchmark package (perfbench/) lives outside the workspace but builds
# against its crates: a workspace API change that breaks it fails here, not
# in the perf gate. It has no lockfile of its own, so it runs without
# --locked.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --workspace --locked --offline

# Seeded chaos pass: six fault schedules × four query shapes must converge
# to their fault-free baselines (see docs/CHAOS.md). Runs with the suite's
# pinned seeds by default; export CHAOS_SEED=<n> to reproduce one failing
# schedule — the whole run is a pure function of the seed.
cargo test -p samzasql-samza --test chaos --locked --offline
# The paper's message-size claim: figures exits non-zero if 100-byte
# messages stop giving more msgs/s, or 10 KB messages more MB/s. The
# ablation run keeps the §7 direct-path and §5.1 codec timings working.
cargo run --release --locked --offline -p samzasql-bench --bin figures -- --fig msgsize
cargo run --release --locked --offline -p samzasql-bench --bin figures -- --fig ablation --messages 2000

# Static plan analysis over the committed SQL corpus: every fixture must
# emit exactly the diagnostic codes its `-- expect:` header declares, so
# seeded-bug fixtures keep firing and the paper's canonical queries stay
# clean (see docs/DIAGNOSTICS.md).
cargo run --release --locked --offline -p samzasql-analyze --bin plan-lint -- crates/analyze/tests/corpus
# The corpus deliberately contains Error-bearing plans; a plain error gate
# (`--deny`, the production-lint mode) must refuse it.
if cargo run --release --locked --offline -p samzasql-analyze --bin plan-lint -- --deny crates/analyze/tests/corpus >/dev/null 2>&1; then
  echo "ci.sh: plan-lint --deny unexpectedly accepted the seeded corpus" >&2
  exit 1
fi

# Observability pass: EXPLAIN ANALYZE must annotate every operator of the
# four clean paper shapes in the corpus, and the Prometheus exporter output
# must validate (unique series, monotone counters, consistent histograms).
# See docs/OBSERVABILITY.md.
cargo run --release --locked --offline -p samzasql-bench --bin explain_analyze -- crates/analyze/tests/corpus

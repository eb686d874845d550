#!/usr/bin/env bash
# Builds the `sas` daemon and the benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload dashboard --seed 1
#
# Both builds go to $CARGO_TARGET_DIR (default: target). Every argument
# is passed through to the benchmark binary; see perfbench/src/main.rs.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --quiet -p sas-cli --bin sas >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --sas "$target/release/sas" --work "$target/perfbench" "$@"

#!/usr/bin/env bash
# The one command. Builds the harness from source, then runs it.
#
#   benchmark/run.sh                       every workload untraced, then traced;
#                                          prints every metric, writes benchmark/out/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; the last stdout line is the result JSON
#   benchmark/run.sh compare A.json B.json two result files side by side
#
# The build lands in $CARGO_TARGET_DIR when the caller sets it (the
# benchmark driver does), else in target/benchmark at the repo root.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --locked --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/benchmark" "$@"

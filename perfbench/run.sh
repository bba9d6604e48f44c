#!/usr/bin/env bash
# Builds the benchmark and the `snake` worker binary in release mode, then
# hands every argument to `snake-bench`:
#
#   perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   perfbench/run.sh all [--seed N]
#   perfbench/run.sh compare A.json B.json
#
# Run it from the root of the checkout. Everything it writes lands under
# the cargo target directory (CARGO_TARGET_DIR, default perfbench/target).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
mkdir -p "$target"
export CARGO_TARGET_DIR="$(cd "$target" && pwd)"

# Build output goes to stderr: stdout belongs to the result line.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p snake-perfbench --bin snake-bench -p snake-core --bin snake >&2

exec "$CARGO_TARGET_DIR/release/snake-bench" "$@"

#!/bin/bash
# Regenerate every paper table/figure plus extensions and ablations into
# results/ (one <name>.txt per registry entry, claims and verdicts at
# the end of each); progress and unmet claims go to stderr, simulated
# logs cache in bench-cache/. Exits non-zero if a shape claim fails.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release -p bench --bin experiments -- "$@" --out results

#!/usr/bin/env bash
# The one command. Builds the benchmark offline, then either
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run, as BENCHMARK.json's `command` is invoked, or
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
#       all four workloads: the end-to-end run, then the traced run.
#
# Every metric is printed by name with its unit; results land in
# benchmark/out/. Exits non-zero when any window failed its check or,
# in a traced run, when a workload-shape guard does not hold.
set -uo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
BIN="$CARGO_TARGET_DIR/release/bs-benchmark"

build() {
    cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
}

if [ -e .git/HEAD ]; then
    # Cargo decides what is stale; with a fresh binary this does nothing.
    build || exit $?
else
    # An exported tree. crates/live/build.rs watches .git/HEAD, cargo
    # takes a missing watched file for a changed one, and every `cargo
    # build` here recompiles bs-live, backscatter-core and the benchmark
    # (8-11 s before each of the driver's 92 runs, a quarter of the time
    # it allows). Until that build script is fixed, build here when the
    # content of the sources or the compiler differs from what the
    # binary was built from; modification times play no part.
    built_from="$CARGO_TARGET_DIR/release/bs-benchmark.built-from"
    sources=$({
        rustc --version
        find benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src benchmark/shims \
            crates Cargo.toml -type f -print0 | sort -z | xargs -0 sha256sum
    } | sha256sum)
    if [ ! -x "$BIN" ] || [ "$(cat "$built_from" 2>/dev/null)" != "$sources" ]; then
        build || exit $?
        echo "$sources" >"$built_from"
    fi
fi

case " $* " in
*" --workload "* | *" --selfcheck "*)
    exec "$BIN" "$@"
    ;;
esac

status=0
for workload in capture-day scan-storm retrain-daily verdict-wide; do
    "$BIN" --workload "$workload" --trace 0 "$@" || status=1
    "$BIN" --workload "$workload" --trace 1 "$@" || status=1
done
exit $status

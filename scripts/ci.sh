#!/bin/bash
# The repo's tier-1 gate, runnable locally and in CI:
#   format check → hermeticity → no unused dependency edge → no thread
#   in bs-telemetry → no retired batch-ingest metric name → one CART
#   growth regime → lints as errors → rustdoc as errors → release
#   build → one experiments binary whose registry matches results/ →
#   bs-dns, bs-netsim, bs-ml, bs-classify, bs-sensor and
#   backscatter-core tests on the release build → tests → CLI smokes.
# Performance is not gated here: `bash benchmark/run.sh` measures it.
# Any step failing fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check"
cargo fmt --all -- --check

echo "=== hermeticity: every package resolves from this repository"
# Path packages have a null `source`; anything else would need a
# registry. --offline so a stray dependency fails here, not on a fetch.
metadata="$(cargo metadata --offline --format-version 1)"
if grep -o '"source":"[^"]*"' <<<"$metadata" | sort -u | grep .; then
    echo "external dependency in the workspace graph (sources listed above)"
    exit 1
fi

echo "=== dependencies: every declared edge is named by the code that declares it"
# A [dependencies] / [dev-dependencies] key (bs-x, read as bs_x) must
# appear in the crate's own src/, tests/ or examples/, and every
# [workspace.dependencies] entry must be some member's key.
dep_keys() { # <manifest> <section header regex>
    awk -v section="$2" '
        /^\[/ { on = ($0 ~ section) }
        on && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$1"
}
unused=0
declared=""
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir="$(dirname "$manifest")"
    roots=()
    for d in src tests examples; do
        if [ -d "$dir/$d" ]; then roots+=("$dir/$d"); fi
    done
    for dep in $(dep_keys "$manifest" '^\[(dev-)?dependencies\]$'); do
        declared+=" $dep"
        if ! grep -rqE "\b${dep//-/_}\b" "${roots[@]}"; then
            echo "$manifest: $dep is declared and never named"
            unused=1
        fi
    done
done
for dep in $(dep_keys Cargo.toml '^\[workspace\.dependencies\]$'); do
    case " $declared " in
    *" $dep "*) ;;
    *)
        echo "Cargo.toml [workspace.dependencies]: no member depends on $dep"
        unused=1
        ;;
    esac
done
[ "$unused" = 0 ] || exit 1

echo "=== bs-telemetry owns no thread"
# Everything it reports is booked by the thread that did the work; each
# file's unit tests (which may spawn) follow its first #[cfg(test)].
if awk 'FNR == 1 { tests = 0 } /^#\[cfg\(test\)\]/ { tests = 1 }
        !tests && /thread::(spawn|Builder)/ { print FILENAME ": " $0; found = 1 }
        END { exit !found }' crates/telemetry/src/*.rs; then
    echo "bs-telemetry spawns a thread outside its tests (lines above)"
    exit 1
fi

echo "=== one ingest engine: the batch road's metric names stay retired"
# Every subcommand's ingest is the streaming sensor's, booked as
# sensor.stream.*; a second per-record loop would bring its own names
# back.
if grep -rnE 'sensor\.(ingest|records|dedup_suppressed)' crates src tests README.md DESIGN.md; then
    echo "a retired batch-ingest stage or counter name is back (lines above)"
    exit 1
fi

echo "=== one CART growth regime: node-local tree growth stays deleted"
# Every node partitions the presorted arrays (DESIGN.md §11); forcing
# the node-local mode at every node ran retrain-daily at 0.63x, so a
# second regime would be a fast path that does not win.
if grep -rnE 'local_mode|grow_local' crates src; then
    echo "a second CART growth regime is back (lines above)"
    exit 1
fi

echo "=== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "=== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# One public implementation per stage: the reference twins the fast
# paths are tested against are #[cfg(test)] and must not resurface in
# any crate's documented API.
if grep -lE 'Reference|_reference' target/doc/*/all.html; then
    echo "a reference implementation is public again (item lists above)"
    exit 1
fi
# Nor the per-pair reference's body: all.html lists items, the struct
# pages their methods.
if grep -lE 'unique_by|id="method\.(total_ases|total_countries|compute)"' \
    target/doc/bs_sensor/all.html \
    target/doc/bs_sensor/ingest/struct.Observations.html \
    target/doc/bs_sensor/dynamic/struct.DynamicFeatures.html; then
    echo "the per-pair reference's body is public again in bs-sensor (pages above)"
    exit 1
fi

echo "=== cargo build --release"
cargo build --release

echo "=== experiments: one binary, and its registry is what results/ holds"
bins=(crates/bench/src/bin/*)
if [ "${#bins[@]}" != 1 ]; then
    echo "crates/bench/src/bin/ holds ${#bins[@]} files; the registry has one binary"
    exit 1
fi
# Entry lines of --list start at column 0; claim lines are indented.
listed="$(cargo run --release -q -p bench --bin experiments -- --list | grep -v '^ ' | cut -d' ' -f1 | sort)"
committed="$(basename -s .txt results/*.txt | sort)"
if [ "$listed" != "$committed" ]; then
    echo "experiments --list and results/*.txt disagree (< registry, > results):"
    diff <(echo "$listed") <(echo "$committed") || true
    exit 1
fi

echo "=== bs-dns, bs-netsim, bs-ml, bs-classify, bs-sensor and backscatter-core suites on the optimised build"
# Fast path ≡ reference is a claim about bits, and what the benchmark
# and the binary run is the release build: the codec digests and the
# hostile-capture suites at widths 1, 2 and 8, its float code, the
# branch-free partition, the vote's early exit, the sensor's
# *_equivalence suites and core::stream's pipelined ≡ inline suites
# over eviction-heavy hostile streams as the optimiser compiles them.
# The debug run below does not see that code.
cargo test --release -p bs-dns -p bs-netsim -p bs-ml -p bs-classify -p bs-sensor -p backscatter-core -q

echo "=== cargo test --workspace (every crate, default thread count)"
# Runs every equivalence suite once. That results do not depend on the
# pool width is pinned by tests/parallel_determinism.rs and by the
# core::stream and netsim::capture tests that set the width themselves.
cargo test --workspace -q

echo "=== root integration tests (sequential: BS_THREADS=1)"
# The root package only: `cargo test -q` alone now runs every default
# member, and the workspace run above has already covered them.
BS_THREADS=1 cargo test -q -p dns-backscatter

echo "=== CLI smoke: --trace writes parseable Chrome trace JSON"
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
target/release/backscatter simulate --dataset JP-ditl --scale smoke \
    --seed 5 --out "$trace_tmp/jp.tsv" --trace "$trace_tmp/trace.json"
# `backscatter trace` parses the file with bs-telemetry's JSON parser
# and fails on anything that is not a trace-event document. Capture
# rather than pipe into grep -q: -q closes the pipe on first match
# and the writer would die on EPIPE.
trace_out="$(target/release/backscatter trace --file "$trace_tmp/trace.json")"
grep -q "cli.simulate" <<<"$trace_out"

echo "=== CLI smoke: classify end-to-end through the blocked forest descent"
# The full pipeline (curate → train → classify_all) serves every
# prediction through Forest::predict_block.
classify_out="$(target/release/backscatter classify --log "$trace_tmp/jp.tsv" \
    --dataset JP-ditl --scale smoke --seed 5)"
grep -q "originator" <<<"$classify_out"

echo "=== CLI smoke: features runs through the qmeta metadata plane"
# `backscatter features` now extracts via the interned querier-metadata
# table; the dynamic columns prove the full fast path ran end-to-end.
features_out="$(target/release/backscatter features --log "$trace_tmp/jp.tsv")"
grep -q "dyn:queries-per-querier" <<<"$features_out"

echo "=== CLI smoke: stream --extract reuses the cross-window qmeta cache"
# Per-window extraction inside the streaming driver, sharing one
# QuerierMetaCache across windows; the summary line reports its
# hit/miss telemetry.
extract_out="$(target/release/backscatter stream --log "$trace_tmp/jp.tsv" \
    --window 600 --extract 1)"
grep -q "analyzable" <<<"$extract_out"
grep -q "qmeta cache:" <<<"$extract_out"

echo "=== CLI smoke: sharded stream --serve answers a live scrape"
target/release/backscatter stream --log "$trace_tmp/jp.tsv" --window 600 \
    --shards 4 --serve 127.0.0.1:0 --linger 6 > "$trace_tmp/stream.out" &
stream_pid=$!
# The binary prints the ephemeral port before ingest starts.
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^live: listening on //p' "$trace_tmp/stream.out" | head -n1)"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "stream --serve never announced its address"; exit 1; }
# One scrape through the same client path users get: stats --watch.
# Capture rather than pipe into grep -q: -q closes the pipe on first
# match and the writer would die on EPIPE.
watch_out="$(target/release/backscatter stats --watch "$addr" --iterations 1)"
grep -q "health=" <<<"$watch_out"
wait "$stream_pid"

echo "=== CLI smoke: stream --profile writes an exact folded flamegraph"
target/release/backscatter stream --log "$trace_tmp/jp.tsv" --window 600 \
    --profile "$trace_tmp/prof.folded" > /dev/null
# Folded collapsed-stack syntax: every line is `frame(;frame)* ns`,
# directly consumable by inferno / flamegraph.pl / speedscope.
bad="$(grep -Ev '^[^ ;]+(;[^ ;]+)* [0-9]+$' "$trace_tmp/prof.folded" || true)"
[ -z "$bad" ] || { echo "malformed folded stack lines:"; echo "$bad"; exit 1; }
grep -q '^cli\.stream;core\.stream' "$trace_tmp/prof.folded" ||
    { echo "no cli.stream;core.stream path in the profile"; exit 1; }

echo "=== ci: all green"

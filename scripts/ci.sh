#!/bin/bash
# The repo's tier-1 gate, runnable locally and in CI:
#   format check → hermeticity → no unused dependency edge → no thread
#   in bs-telemetry → no retired batch-ingest metric name → one CART
#   growth regime → one keyword matcher → no soft cap on the metadata
#   cache → compact window (no 16-byte dedup entry or stored query) →
#   one sensing pass per dataset (no per-window wrapper, no pipeline
#   feature config, no per-window rescan, no log merge, no bs-live
#   ring) → traffic-sized machinery (no work-stealing queue, no log
#   rate limiter) → one window view (only the code that builds a
#   window reads its storage) → one road from bytes to verdicts (no
#   classify --model, no --shards, --capture or --format flag) →
#   observability sized to the binary (no shard-skew view, backlog rule
#   or live config struct, one recorder ring, one Gram matrix, no IPv6
#   reverse helpers) → lints as errors → rustdoc as errors → release build → one experiments
#   binary whose registry matches results/ → bs-dns, bs-netsim, bs-ml,
#   bs-classify, bs-sensor and backscatter-core tests on the release
#   build → tests → CLI smokes (stream --extract holds fewer cache
#   entries than the log has queriers; stream --model prints verdict
#   rows from a capture).
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
# A [dependencies] key (bs-x, read as bs_x) must appear in the crate's
# own src/, a [dev-dependencies] key in its src/, tests/ or examples/:
# an edge only tests or examples use is a dev-dependency. Every
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
    for section in dependencies dev-dependencies; do
        roots=()
        case "$section" in
        dependencies) dirs="src" ;;
        *) dirs="src tests examples" ;;
        esac
        for d in $dirs; do
            if [ -d "$dir/$d" ]; then roots+=("$dir/$d"); fi
        done
        for dep in $(dep_keys "$manifest" "^\\[$section\\]\$"); do
            declared+=" $dep"
            if ! grep -rqE "\b${dep//-/_}\b" "${roots[@]}"; then
                echo "$manifest: [$section] $dep is never named under $dirs"
                unused=1
            fi
        done
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

echo "=== one keyword matcher: the packed matcher stays deleted"
# Static features match a label keyword at a time and byte at a time
# (DESIGN.md §14); shipping the packed u64 matcher instead read within
# noise end to end, so a second matcher would be a fast path that does
# not win.
if grep -rnE 'PackedKeyword|packed_rules|fold_ascii_lower|pack_prefix' crates src; then
    echo "a second keyword matcher is back (lines above)"
    exit 1
fi

echo "=== bounded metadata cache: the soft cap stays deleted"
# QuerierMetaCache drops every entry past its keep horizon at each
# window boundary (DESIGN.md §15), so it holds only what it can still
# serve; a size cap beside that would be a second bound on one cache.
if grep -rnE 'max_entries|cache_evictions|fn evicted' crates src; then
    echo "the metadata cache's soft cap is back (lines above)"
    exit 1
fi

echo "=== compact window: the 16-byte dedup entry and stored query stay gone"
# A dedup entry is a [u32; 2] pair key and a 31-bit window offset with
# the footprint bit, 12 bytes; a stored query is its offset from the
# window start and the querier, 8 (DESIGN.md §10). A u64 offset or an
# absolute time beside the querier would be 16 again.
if grep -rnE 'HashMap<u64, u64|Vec<\(SimTime, Ipv4Addr\)>' crates/sensor/src crates/bench/src; then
    echo "a 16-byte dedup entry or stored query is back (lines above)"
    exit 1
fi

echo "=== one sensing pass per dataset"
# sense_dataset senses every window of a dataset in one streaming pass
# over its time-ordered log, and DatasetPipeline::run classifies the
# features it is given (DESIGN.md §10): a per-window wrapper, a sensor
# config inside the pipeline, a per-window sensing method on
# BuiltDataset or a second way to order a log would be a second
# sensing road. The live sampler caps its own VecDeque, so bs-live
# needs no ring type.
if grep -rnE 'features_for_window|\.feature_config\b|par_map\(&self\.windows\(\)' \
    crates src tests examples ||
    grep -rn 'fn features(' crates/datasets/src ||
    grep -n 'fn merge' crates/netsim/src/log.rs; then
    echo "a second road that senses a dataset is back (lines above)"
    exit 1
fi
if [ -e crates/live/src/ring.rs ]; then
    echo "crates/live/src/ring.rs is back"
    exit 1
fi

echo "=== traffic-sized machinery: work-stealing queues and the log rate limiter stay deleted"
# Every parallel region is a flat index range whose workers claim tasks
# from one shared counter, and no task creates a task, so per-worker
# deques would balance nothing (DESIGN.md §9). No log call site fires
# more than once per command, dataset or window, and the watchdog logs
# only on a hysteresis edge, so a per-site token bucket would limit
# nothing (DESIGN.md §8, §12).
if grep -rnE 'VecDeque|next_task|par\.steals' crates/par/src ||
    grep -rnE 'LogSite|SITE_BURST|SITE_REFILL_PER_SEC|log\.suppressed' \
        crates src README.md DESIGN.md; then
    echo "work-stealing queues or the log rate limiter are back (lines above)"
    exit 1
fi

echo "=== one window view: only the code that builds a window reads its storage"
# Every reader sees a sensed window through Observations' accessors and
# OriginatorObservation's methods (DESIGN.md §10), so only ingest.rs,
# stream.rs and shard.rs, with their own unit tests, know how it is
# stored. The benchmark reads the fields until ROADMAP 1(c).
if grep -rnE '\.per_originator|\.all_queriers' crates src tests examples |
    grep -vE '^crates/sensor/src/(ingest|stream|shard)\.rs:'; then
    echo "a window's storage is read outside the code that builds it (lines above)"
    exit 1
fi

echo "=== one road from bytes to verdicts: the retired CLI roads and flags stay deleted"
# A saved model classifies through `stream --model` only, every --log
# is read by its bytes (a capture needs no flag of its own), the
# sharded engine is not a user's switch, and `stats` snapshots no idle
# process (README "The backscatter CLI").
commands="$(sed -n '/^const COMMANDS/,/^];/p' src/bin/backscatter.rs | tr '\n' ' ' |
    grep -o '&\[[^]]*\]' || true)"
[ -n "$commands" ] || { echo "no COMMANDS flag lists in src/bin/backscatter.rs"; exit 1; }
if grep -n 'cmd_classify_with_model' src/bin/backscatter.rs ||
    grep -E '"(shards|capture|format)"' <<<"$commands"; then
    echo "a retired CLI road or flag is back (lines above)"
    exit 1
fi

echo "=== observability sized to the binary: retired views, rules and knobs stay deleted"
# The live plane watches what the binary runs: no view of the sharded
# engine nothing selects, no rule over a gauge that is only the size of
# the open parallel region, and no config struct for values the binary
# sets one way (DESIGN.md §12, §13). The flight recorder is one ring,
# the SVM keeps one Gram matrix, and the parked IPv6 reverse helpers
# stay deleted (DESIGN.md §8, §11).
if grep -rnE 'ShardSkew|shard_skew|par_backlog|shard_backlog|par\.inflight|LiveConfig|SeriesConfig|gram_limit|STRIPES|reverse_name_v6|parse_reverse_v6' \
    crates src tests examples; then
    echo "a retired live view, rule, gauge or knob is back (lines above)"
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
# hit/miss telemetry and the entries it ends holding, which the keep
# horizon holds below the log's distinct queriers.
extract_out="$(target/release/backscatter stream --log "$trace_tmp/jp.tsv" \
    --window 600 --extract 1)"
grep -q "analyzable" <<<"$extract_out"
held="$(sed -n 's/^qmeta cache: .*, \([0-9]*\) entries held$/\1/p' <<<"$extract_out")"
queriers="$(cut -f2 "$trace_tmp/jp.tsv" | sort -u | wc -l)"
[ -n "$held" ] || { echo "no qmeta cache summary line"; exit 1; }
[ "$held" -lt "$queriers" ] ||
    { echo "qmeta cache holds $held entries, the log has $queriers queriers"; exit 1; }

echo "=== CLI smoke: stream --model classifies a capture window by window"
# Capture bytes → sensor → extract → classify_all: the chain the
# benchmark measures, as one command.
target/release/backscatter capture --log "$trace_tmp/jp.tsv" --out "$trace_tmp/jp.bscap"
target/release/backscatter train --log "$trace_tmp/jp.bscap" --dataset JP-ditl \
    --scale smoke --seed 5 --save "$trace_tmp/jp.bsf"
model_out="$(target/release/backscatter stream --log "$trace_tmp/jp.bscap" \
    --model "$trace_tmp/jp.bsf")"
[ "$(head -n1 <<<"$model_out")" = $'window\toriginator\tqueriers\tclass' ] ||
    { echo "stream --model printed no verdict header"; exit 1; }
rows="$(awk -F'\t' 'NR > 1 && NF == 4 && $1 ~ /^[0-9]+$/' <<<"$model_out" | wc -l)"
[ "$rows" -gt 0 ] || { echo "stream --model printed no verdict rows"; exit 1; }

echo "=== CLI smoke: stream --serve answers a live scrape"
target/release/backscatter stream --log "$trace_tmp/jp.tsv" --window 600 \
    --serve 127.0.0.1:0 --linger 6 > "$trace_tmp/stream.out" &
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

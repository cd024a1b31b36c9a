#!/bin/bash
# The repo's tier-1 gate, runnable locally and in CI:
#   format check → hermeticity → no unused dependency edge → no thread
#   in bs-telemetry → retired names stay deleted (one table: PR,
#   pattern, paths, allowed hits; plus no bs-live ring and no retired
#   CLI flag in COMMANDS) → every pub fn has a consumer → lints as
#   errors (unreachable_pub on) → rustdoc as errors → the benchmark
#   builds → release build → one experiments binary whose registry
#   matches results/ → bs-dns, bs-netsim, bs-ml, bs-classify, bs-sensor
#   and backscatter-core tests on the release build → tests → the seed
#   sweep matches EXPERIMENTS.md → CLI smokes (stream --extract holds
#   fewer cache entries than the log has queriers; stream --model
#   prints verdict rows from a capture).
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

echo "=== retired names stay deleted"
# One row per retired road, fast path or knob: the PR that retired it,
# an extended regex, where it must not appear, the hits that may stay
# (a regex over grep's `file:line:` prefix, `-` for none) and what came
# back if it matches. DESIGN.md gives each retirement's reason.
# Retiring a name is one row.
retired_table() {
    cat <<'TABLE'
21 | sensor\.(ingest|records|dedup_suppressed) | crates src tests README.md DESIGN.md | - | a retired batch-ingest stage or counter name (one ingest engine)
31 | local_mode|grow_local | crates src | - | a second CART growth regime
32 | PackedKeyword|packed_rules|fold_ascii_lower|pack_prefix | crates src | - | a second keyword matcher
33 | max_entries|cache_evictions|fn evicted | crates src | - | the metadata cache's soft cap
34 | HashMap<u64, u64|Vec<\(SimTime, Ipv4Addr\)> | crates/sensor/src crates/bench/src | - | a 16-byte dedup entry or stored query
35 | features_for_window|\.feature_config\b|par_map\(&self\.windows\(\) | crates src tests examples | - | a second road that senses a dataset
36 | fn features\( | crates/datasets/src | - | a per-window sensing method on BuiltDataset
36 | fn merge | crates/netsim/src/log.rs | - | a second way to order a log
37 | VecDeque|next_task|par\.steals | crates/par/src | - | a work-stealing queue
37 | LogSite|SITE_BURST|SITE_REFILL_PER_SEC|log\.suppressed | crates src README.md DESIGN.md | - | the log rate limiter
38 | \.per_originator|\.all_queriers | crates src tests examples | ^crates/sensor/src/(ingest|stream|shard)\.rs: | a window's storage read outside the code that builds it
39 | cmd_classify_with_model | src/bin/backscatter.rs | - | a second saved-model road
40 | ShardSkew|shard_skew|par_backlog|shard_backlog|par\.inflight|LiveConfig|SeriesConfig|gram_limit|STRIPES|reverse_name_v6|parse_reverse_v6 | crates src tests examples | - | a retired live view, rule, gauge or knob
43 | predict_with_confidence|pub fn predict\( | crates src tests examples DESIGN.md README.md | ^crates/ml/src/svm\.rs: | a per-row predictor beside the blocked vote, or a vote share
TABLE
}
back=0
while IFS=$'\t' read -r pr pattern paths allowed what; do
    # shellcheck disable=SC2086 # paths is a word list
    hits="$(grep -rnE -- "$pattern" $paths || true)"
    if [ "$allowed" != - ]; then hits="$(grep -vE -- "$allowed" <<<"$hits" || true)"; fi
    if [ -n "$hits" ]; then
        echo "$hits"
        echo "retired in PR $pr and back: $what (lines above)"
        back=1
    fi
done < <(retired_table | sed 's/ | /\t/g')
# Not a grep row: the live sampler caps its own VecDeque, so bs-live
# needs no ring type (PR 35).
if [ -e crates/live/src/ring.rs ]; then
    echo "crates/live/src/ring.rs is back"
    back=1
fi
# Not a grep row: the retired CLI flags, read from the COMMANDS table
# (PR 39: every --log is read by its bytes, the sharded engine is not a
# user's switch, and `stats` snapshots no idle process). One line per
# command: its name, its stage, then the flags it reads.
commands="$(sed -n '/^const COMMANDS/,/^];/p' src/bin/backscatter.rs | tr '\n' ' ' |
    grep -oE '\( *"[^"]+", *"[^"]*", *&\[[^]]*\]' | tr -d '(),&[]"' |
    awk '{ $1 = $1; print }' || true)"
[ -n "$commands" ] || { echo "no COMMANDS rows in src/bin/backscatter.rs"; exit 1; }
if cut -d' ' -f3- <<<"$commands" | grep -wE 'shards|capture|format'; then
    echo "a retired CLI flag is back (lines above)"
    back=1
fi
[ "$back" = 0 ] || exit 1

echo "=== every documented backscatter command runs: its name and flags are in COMMANDS"
# Each `target/release/backscatter <command> …` in README.md and
# DESIGN.md, its `\` continuation lines joined and anything after `#`
# or `|` cut, must name a command of the table above, and each --flag
# must be one that command reads or one of COMMON_FLAGS.
common="$(sed -n 's/^const COMMON_FLAGS.*= &\[\(.*\)\];$/\1/p' src/bin/backscatter.rs | tr -d '",')"
[ -n "$common" ] || { echo "no COMMON_FLAGS in src/bin/backscatter.rs"; exit 1; }
stale=0
while read -r where line; do
    line="${line%%#*}"
    line="${line%%|*}"
    read -r _ command rest <<<"$line"
    row="$(awk -v c="$command" '$1 == c' <<<"$commands")"
    if [ -z "$row" ]; then
        echo "$where: no command \`$command\` in COMMANDS: $line"
        stale=1
        continue
    fi
    read -r _ _ reads <<<"$row"
    for word in $rest; do
        case "$word" in --*) ;; *) continue ;; esac
        flag="${word#--}"
        case " $reads $common " in
        *" $flag "*) ;;
        *)
            echo "$where: \`$command\` has no flag --$flag: $line"
            stale=1
            ;;
        esac
    done
done < <(awk '
    !joining && /^[ \t]*target\/release\/backscatter / { line = ""; joining = 1; at = FILENAME ":" FNR }
    joining {
        text = $0; sub(/\\[ \t]*$/, "", text)
        line = line " " text
        if ($0 !~ /\\[ \t]*$/) { print at line; joining = 0 }
    }' README.md DESIGN.md)
[ "$stale" = 0 ] || exit 1

echo "=== every pub fn has a consumer: another target names it"
# `pub` means another target names the item (DESIGN.md §3). A target is
# another crate's src/, tests/ or examples/, the crate's own tests/,
# examples/ or src/bin/, the root package's src/, tests/ or examples/,
# benchmark/src, or a doc example. rustc's unreachable_pub catches a
# `pub` no other crate can reach; this catches one that nothing calls.
# The logger macros reach log_enabled and log_emit through `$crate::`.
macro_targets="log_enabled log_emit"
# Identifiers of the code in the files given: lines outside `//`
# comments, plus the fenced examples inside `///` and `//!` comments
# (with docs_only=1, those alone).
idents() {
    awk -v docs_only="${docs_only:-0}" '
        FNR == 1 { fence = 0 }
        /^[ \t]*\/\/[\/!]/ {
            line = $0; sub(/^[ \t]*\/\/[\/!] ?/, "", line)
            if (line ~ /^```/) { fence = !fence; next }
            if (fence) print line
            next
        }
        /^[ \t]*\/\// { next }
        !docs_only { print }' "$@" | { grep -oE '[A-Za-z_][A-Za-z0-9_]*' || true; } | sort -u
}
unnamed=0
for crate in crates/*; do
    consumers=(src tests examples benchmark/src "$crate/tests" "$crate/examples" "$crate/src/bin")
    for other in crates/*; do
        [ "$other" = "$crate" ] || consumers+=("$other/src" "$other/tests" "$other/examples")
    done
    # Directories a crate does not have are skipped.
    mapfile -t consumer_files < <(find "${consumers[@]}" -name '*.rs' 2>/dev/null)
    mapfile -t own < <(find "$crate/src" -name '*.rs' -not -path "$crate/src/bin/*")
    named="$( (idents "${consumer_files[@]}"; docs_only=1 idents "${own[@]}") | sort -u)"
    pub_fns="$({ grep -hoE '^[[:space:]]*pub (const |unsafe |async )*fn [A-Za-z0-9_]+' "${own[@]}" ||
        true; } | sed 's/.* fn //' | sort -u)"
    for name in $(comm -23 <(echo "$pub_fns") <(echo "$named")); do
        case " $macro_targets " in *" $name "*) continue ;; esac
        echo "$crate: pub fn $name is named by no other target"
        unnamed=$((unnamed + 1))
    done
done
if [ "$unnamed" != 0 ]; then
    echo "$unnamed pub fn names have no consumer: make them pub(crate), or delete what rustc then finds unused"
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
    target/doc/bs_sensor/struct.DynamicFeatures.html; then
    echo "the per-pair reference's body is public again in bs-sensor (pages above)"
    exit 1
fi

echo "=== the benchmark builds against the workspace's API"
# Nothing above builds benchmark/, so narrowing an item it names would
# fail every benchmark run. Its own workspace rewrites
# benchmark/Cargo.lock; the committed one is put back (ROADMAP 1(a)
# deletes this step when the benchmark joins the root workspace).
bench_tmp="$(mktemp -d)"
cp benchmark/Cargo.lock "$bench_tmp/"
trap 'cp "$bench_tmp/Cargo.lock" benchmark/Cargo.lock; rm -rf "$bench_tmp"' EXIT
cargo check --offline --manifest-path benchmark/Cargo.toml
cp "$bench_tmp/Cargo.lock" benchmark/Cargo.lock
rm -rf "$bench_tmp"
trap - EXIT

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

echo "=== the seed sweep: every claim's verdicts on smoke seeds 1-8 are EXPERIMENTS.md's"
# tests/paper_shape.rs::seed_sweep prints the per-seed totals and the
# per-claim counts; a claim that starts or stops failing on some seed
# is recorded in EXPERIMENTS.md ("Claims across seeds"), never chosen
# away by seed.
sweep="$(cargo test -q --test paper_shape -- --ignored --nocapture --exact seed_sweep 2>/dev/null |
    grep '^|')"
recorded="$(sed -n '/^<!-- seed-sweep: begin -->$/,/^<!-- seed-sweep: end -->$/p' EXPERIMENTS.md |
    grep '^|')"
if [ "$sweep" != "$recorded" ]; then
    diff <(echo "$recorded") <(echo "$sweep") || true
    echo "the seed sweep differs from EXPERIMENTS.md (< recorded, > this run)"
    exit 1
fi

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

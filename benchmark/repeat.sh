#!/usr/bin/env bash
# benchmark/repeat.sh [N] [--seed <n>] [--seconds <s>]
#
# Runs the end-to-end set (all four workloads, tracing off) N times
# (default 2) on the same code and seed, prints each metric's values
# with their relative spread, and fails when any two runs disagree by
# more than that metric's bound in BENCHMARK.json, when the verdict
# digests differ, or when verdict_accuracy is not identical.
set -uo pipefail
cd "$(dirname "$0")/.."

runs=2
case "${1:-}" in
'' | --*) ;;
*)
    runs=$1
    shift
    ;;
esac

# Build once; the runs below find the binary fresh.
benchmark/run.sh --selfcheck >/dev/null || exit $?

out=benchmark/out/repeat
rm -rf "$out"
status=0
for run in $(seq 1 "$runs"); do
    for workload in capture-day scan-storm retrain-daily verdict-wide; do
        echo "run $run: $workload" >&2
        benchmark/run.sh --workload "$workload" --trace 0 --out "$out/$run" "$@" >/dev/null || status=1
    done
done

python3 - "$out" "$runs" <<'PY' || status=1
import json, sys
out, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
bad = False
for w in (x["name"] for x in spec["workloads"]):
    files = [json.load(open(f"{out}/{r}/{w}.json")) for r in range(1, runs + 1)]
    digests = {f["verdict_digest"] for f in files}
    print(f"{w}: verdict_digest {' '.join(sorted(digests))}" + ("" if len(digests) == 1 else "  DIFFER"))
    bad |= len(digests) != 1
    for m in spec["end_to_end"]:
        values = [f["result"]["metrics"][m["name"]]["value"] for f in files]
        spread = (max(values) - min(values)) / min(values)
        exact = m["name"] == "verdict_accuracy"
        ok = spread == 0 if exact else spread <= m["bound"]
        bad |= not ok
        shown = " ".join(f"{v:.6g}" for v in values)
        print(f"  {m['name']:<18} {shown}  spread {100 * spread:.2f}% bound {100 * m['bound']:g}%"
              + ("" if ok else "  OUTSIDE"))
sys.exit(1 if bad else 0)
PY
exit $status

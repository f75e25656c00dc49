#!/usr/bin/env bash
# Repeatability of the benchmark: runs every workload K times, alternating
# the workload order between repetitions, and prints for every metric its
# median, first and third quartiles (Python's statistics.quantiles, n=4)
# and the quartile spread as a share of the median. For host-scaled times
# it also prints the spread of the raw (unscaled) measurement.
#
# Usage (from the repository root):
#   benchmark/repeat.sh [K=5] [SEED=1] [SECONDS] [TRACE=0]
# SEED=vary gives repetition i the seed i instead of one fixed seed.
# SECONDS defaults to BENCHMARK.json's run_seconds.
set -euo pipefail

k=${1:-5}
seed=${2:-1}
seconds=${3:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
trace=${4:-0}
workloads=(cold-pipeline warm-hits mixed-batch codegen)

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"

results=""
for ((i = 0; i < k; i++)); do
    order=("${workloads[@]}")
    if ((i % 2 == 1)); then
        order=(codegen mixed-batch warm-hits cold-pipeline)
    fi
    s=$seed
    if [[ $seed == vary ]]; then s=$((i + 1)); fi
    for w in "${order[@]}"; do
        # The next-to-last line is the full record (with raw values).
        line=$("$bin" --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 2 | head -n 1)
        results+="$w $line"$'\n'
        echo "run $((i + 1))/$k $w seed $s done" >&2
    done
done

printf '%s' "$results" | python3 -c '
import json, os, statistics, sys
runs = {}
for row in sys.stdin:
    workload, line = row.split(" ", 1)
    record = json.loads(line)
    assert record["correct"], (workload, record)
    for name, m in record["metrics"].items():
        r = runs.setdefault(workload, {}).setdefault(name, ([], []))
        r[0].append(m["value"])
        if "raw" in m:
            r[1].append(m["raw"])
def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0
print(f"cores: {os.cpu_count()}")
print("%-14s %-36s %14s %14s %14s %8s %8s" % ("workload", "metric", "median", "q1", "q3", "spread", "raw"))
for workload, metrics in runs.items():
    for name, (values, raw) in metrics.items():
        med, q1, q3, s = spread(values)
        raw_spread = "%7.2f%%" % (100 * spread(raw)[3]) if raw else "       -"
        print("%-14s %-36s %14.6g %14.6g %14.6g %7.2f%% %s" % (workload, name, med, q1, q3, 100 * s, raw_spread))
'

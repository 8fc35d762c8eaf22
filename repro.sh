#!/usr/bin/env bash
# Regenerates every table and figure of the paper into results/.
# Usage: ./repro.sh
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p results
for bin in packaging fig7 table1 table2 table3 hotspot queue_depth bandwidth multiprog speedup degradation; do
    echo "== $bin =="
    cargo run --release -q -p ultra-bench --bin "$bin" | tee "results/$bin.txt"
    echo
done

echo "== serving =="
# E15: the open-loop serving tier — load vs tail latency (results/serving.txt,
# which CI diffs like the tables above), plus the deterministic curve artifact.
cargo run --release -q -p ultra-bench --bin serving | tee results/serving.txt
cargo run --release -q -p ultra-bench --bin serving -- --out results/serving-curve.json > /dev/null
echo

echo "== ultra-serve =="
# Three-job batch: `warm` and `resume` share a sweep prefix (same machine,
# seed and workload; only the cycle budget differs), so `resume` must pick
# up `warm`'s final checkpoint from the snapshot cache instead of
# re-simulating the first 600 cycles.
cat > results/serve_batch.ndjson <<'EOF'
{"id": "warm", "pes": 8, "seed": 11, "workload": "ticket", "rounds": 40, "cycles": 600, "checkpoint_every": 512, "priority": 10}
{"id": "resume", "pes": 8, "seed": 11, "workload": "ticket", "rounds": 40, "cycles": 200000, "checkpoint_every": 512}
{"id": "other", "pes": 16, "seed": 3, "workload": "barrier", "rounds": 4}
EOF
cargo run --release -q -p ultra-serve -- --batch results/serve_batch.ndjson --workers 1 \
    --metrics-out results/serve_metrics.json --trace-out results/serve_trace.json \
    > results/serve_results.ndjson 2> results/serve_log.txt
cat results/serve_results.ndjson
grep -q 'cache hit: job `resume` resumed from cycle' results/serve_log.txt \
    || { echo "ERROR: the resume job did not hit the snapshot cache"; exit 1; }
python3 -m json.tool results/serve_metrics.json > /dev/null \
    || { echo "ERROR: serve_metrics.json is not valid JSON"; exit 1; }
python3 -m json.tool results/serve_trace.json > /dev/null \
    || { echo "ERROR: serve_trace.json is not valid JSON"; exit 1; }
echo "serve smoke OK: $(grep -c '^' results/serve_results.ndjson) results, prefix-cache hit confirmed"
echo

echo "All experiment outputs written to results/."

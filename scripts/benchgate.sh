#!/usr/bin/env bash
# benchgate.sh — benchmark regression gate
#
# Compares fresh BENCH_<exp>.json results against the checked-in baselines
# in scripts/bench_baseline/ and fails on any gated figure (latency *_ns,
# throughput qps) that regresses past the tolerance (default 3x; override
# with BENCHGATE_TOLERANCE). Existing BENCH_*.json files in the repo root
# are reused — CI runs `make bench-json` right before this — and generated
# only when one is missing.
#
# When a slowdown is intended, regenerate the baselines:
#   make bench-json && cp BENCH_*.json scripts/bench_baseline/
set -euo pipefail
cd "$(dirname "$0")/.."

exps="E3 E4 E6 E9 E12 E13 E14 E15"
missing=0
for exp in $exps; do
    [ -f "BENCH_${exp}.json" ] || missing=1
done
if [ "$missing" = 1 ]; then
    echo "benchgate: producing fresh BENCH_<exp>.json ($exps)"
    go run ./cmd/hrbench -json . $exps > /dev/null
fi

go run ./scripts/benchgate -baseline scripts/bench_baseline -current .

#!/usr/bin/env bash
# bench.sh — run the grid macro-benchmarks, the trace-transport
# micro-benchmarks, and the OoO core and cache model micro-benchmarks
# (both always at -count 10), recording the results as a labeled entry in
# BENCH_<date>.json (benchstat-replayable via the entry's raw lines;
# see scripts/benchjson).
#
# Usage: scripts/bench.sh [label] [count]
#   label  entry label in the JSON log (default: dev)
#   count  -count passed to go test (default: 3)
#
# The label "dist" is a mode: it runs only the distributed-vs-parallel
# grid pair (a loopback dist coordinator + local workers against the
# shared-memory parallel runner) and records the comparison as a `dist`
# entry — the number to watch is BenchmarkGridDist's overhead relative
# to BenchmarkGridParallel at the same worker count.
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-dev}"
count="${2:-3}"
out="BENCH_$(date +%F).json"
commit="$(git rev-parse --short HEAD 2>/dev/null || true)"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

if [ "$label" = "dist" ]; then
  echo "== distributed vs parallel grid (count=$count) =="
  go test -run '^$' -bench 'BenchmarkGrid(Parallel|Dist)$' -benchmem -count "$count" -timeout 120m . | tee -a "$tmp"
else
  echo "== grid macro-benchmarks (count=$count) =="
  go test -run '^$' -bench 'BenchmarkGrid' -benchmem -count "$count" -timeout 120m . | tee -a "$tmp"

  echo "== trace-transport micro-benchmarks (count=$count) =="
  go test ./internal/trace -run '^$' -bench TraceTransport -benchmem -count "$count" | tee -a "$tmp"

  echo "== OoO core micro-benchmarks (count=10) =="
  go test ./internal/harness -run '^$' -bench CoreEmitBatch -benchmem -count 10 | tee -a "$tmp"

  echo "== cache model micro-benchmarks (count=10) =="
  go test ./internal/harness -run '^$' -bench CacheEmitBatch -benchmem -count 10 | tee -a "$tmp"
fi

go run ./scripts/benchjson -label "$label" -commit "$commit" -out "$out" < "$tmp"

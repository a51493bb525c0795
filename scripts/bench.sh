#!/usr/bin/env bash
# bench.sh — run the lattice-engine and FA-simulator benchmark suites and
# record the results in BENCH_lattice.json and BENCH_fa.json (benchmark
# name → ns/op, allocs/op) so future PRs can track the performance
# trajectory.
#
# Usage: scripts/bench.sh [benchtime]
#   benchtime  go test -benchtime value (default 1s; use e.g. 10x for a
#              quick smoke run)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-1s}"
TMP="$(mktemp)"
TMP_FA="$(mktemp)"
TMP_BIG="$(mktemp)"
TMP_INCR="$(mktemp)"
TMP_STREAM="$(mktemp)"
TMP_SPECLINT="$(mktemp)"
trap 'rm -f "$TMP" "$TMP_FA" "$TMP_BIG" "$TMP_INCR" "$TMP_STREAM" "$TMP_SPECLINT"' EXIT

# to_json converts `go test -bench` output on stdin to a {name: {ns_per_op,
# allocs_per_op}} JSON object.
to_json() {
    awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    ns = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns != "") {
        if (count++) printf(",\n")
        printf("  \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s}", name, ns, allocs == "" ? "null" : allocs)
    }
}
BEGIN { printf("{\n") }
END   { printf("\n}\n") }
'
}

# Table-2 lattice construction (the paper's headline cost), the
# cover-linking and query micro-benchmarks, Build and cover linking on the
# bulk-shaped corpus, the cover-list sort, and the bitset kernels.
go test -run '^$' -bench 'BenchmarkTable2_Lattice|BenchmarkLatticeOps' \
    -benchmem -benchtime "$BENCHTIME" . | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkBuild$|BenchmarkLinkCovers|BenchmarkLatticeQueries|BenchmarkBulkShaped|BenchmarkSortInts' \
    -benchmem -benchtime "$BENCHTIME" ./internal/concept | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkBitset|BenchmarkArena' \
    -benchmem -benchtime "$BENCHTIME" ./internal/bitset | tee -a "$TMP"

to_json < "$TMP" > BENCH_lattice.json
echo "wrote BENCH_lattice.json"

# The big-corpus lane: lattice construction at production scale (>10⁴
# synthetic trace classes from internal/xtrace), proving the hot-path wins
# hold two orders of magnitude past the Table 2 fixtures.
go test -run '^$' -bench 'BenchmarkLatticeBig' \
    -benchmem -benchtime "$BENCHTIME" ./internal/concept | tee -a "$TMP_BIG"

to_json < "$TMP_BIG" > BENCH_lattice_big.json
echo "wrote BENCH_lattice_big.json"

# The compiled FA simulator (legacy loop vs compiled plan vs memoized
# classes) and the trace-context construction that rides on it.
go test -run '^$' -bench 'BenchmarkExecuted$|BenchmarkExecutedAll|BenchmarkAccepts' \
    -benchmem -benchtime "$BENCHTIME" ./internal/fa | tee -a "$TMP_FA"
go test -run '^$' -bench 'BenchmarkTraceContext' \
    -benchmem -benchtime "$BENCHTIME" ./internal/concept | tee -a "$TMP_FA"

to_json < "$TMP_FA" > BENCH_fa.json
echo "wrote BENCH_fa.json"

# Incremental maintenance: one AddTraceCtx against a built lattice vs the
# full BuildCtx rebuild it replaces. The add/rebuild ratio is the headline
# number (the server's add-traces endpoint rides on it); the acceptance bar
# is >=10x.
go test -run '^$' -bench 'BenchmarkIncremental' \
    -benchmem -benchtime "$BENCHTIME" ./internal/concept | tee -a "$TMP_INCR"

to_json < "$TMP_INCR" > BENCH_incremental.json
echo "wrote BENCH_incremental.json"

# Streaming verification: the per-event online-check kernel (steady
# state, violation path, 1000 checkers sharing one plan, NDJSON decode)
# and the end-to-end pump through cabled's HTTP surface with 1000 open
# streams fed xtrace-generated workloads.
go test -run '^$' -bench 'BenchmarkFeed$|BenchmarkFeedViolations|BenchmarkManyStreams|BenchmarkIngest' \
    -benchmem -benchtime "$BENCHTIME" ./internal/stream | tee -a "$TMP_STREAM"
go test -run '^$' -bench 'BenchmarkStreamPump' \
    -benchmem -benchtime "$BENCHTIME" ./internal/server | tee -a "$TMP_STREAM"

to_json < "$TMP_STREAM" > BENCH_stream.json
echo "wrote BENCH_stream.json"

# The language engine (internal/fa's DFA half): subset-construction
# determinization, Hopcroft minimization, and the witness-producing
# inclusion check, on the X11-scale corpus union and the bigger
# program-model union.
go test -run '^$' -bench 'BenchmarkLangDeterminize|BenchmarkLangMinimize|BenchmarkLangInclusion' \
    -benchmem -benchtime "$BENCHTIME" ./internal/fa | tee -a "$TMP_SPECLINT"

to_json < "$TMP_SPECLINT" > BENCH_speclint.json
echo "wrote BENCH_speclint.json"

# One merged file keyed by suite, so trend tooling reads a single
# artifact instead of stitching the per-suite files.
{
    echo '{'
    echo '  "lattice":'
    sed 's/^/    /' BENCH_lattice.json
    echo '  ,'
    echo '  "lattice_big":'
    sed 's/^/    /' BENCH_lattice_big.json
    echo '  ,'
    echo '  "fa":'
    sed 's/^/    /' BENCH_fa.json
    echo '  ,'
    echo '  "incremental":'
    sed 's/^/    /' BENCH_incremental.json
    echo '  ,'
    echo '  "stream":'
    sed 's/^/    /' BENCH_stream.json
    echo '  ,'
    echo '  "speclint":'
    sed 's/^/    /' BENCH_speclint.json
    echo '}'
} > BENCH_summary.json
echo "wrote BENCH_summary.json"

# Phase-attributed metrics snapshot next to the raw numbers: where a
# Table-2 run spends its time (trace parse, FA sim, context build, lattice
# build, cover linking), not just how long the benchmarks took.
SNAP="BENCH_obs_snapshot.txt"
go run ./cmd/paper -table 2 -metrics >/dev/null 2> "$SNAP"
echo "wrote $SNAP"

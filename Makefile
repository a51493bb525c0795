# Developer entry points. `make ci` is the gate a CI job should run.

GO ?= go

.PHONY: ci vet fmt cablevet speclint speclint-corpus build test race bench-smoke bench obs-smoke fuzz-smoke cabled-smoke snapshot-smoke stream-smoke perfbench-smoke

ci: fmt vet cablevet speclint speclint-corpus build race bench-smoke obs-smoke fuzz-smoke cabled-smoke snapshot-smoke stream-smoke perfbench-smoke

vet:
	$(GO) vet ./...

# gofmt gate: fail if any tracked source (testdata golden packages are
# deliberately excluded — `// want` comments pin exact columns) needs
# reformatting.
fmt:
	@out="$$(gofmt -l . | grep -v testdata || true)"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The repo's own invariant suite (internal/analysis/analyzers), the test
# tier-1 runs too: TestCablevet type-checks the module and runs the six
# analyzers over the package variants `go vet ./...` vets, test files
# included. Findings and stale //cablevet:ignore directives fail it; see
# DESIGN.md for the rule catalogue and the suppression syntax.
cablevet:
	$(GO) test -count=1 -run '^TestCablevet$$' .

# The specification-level counterpart: every shipped paper spec must lint
# clean — structural and semantic rules plus the cross-spec
# duplicate/subsumption pass (internal/speclint via cable lint).
speclint:
	$(GO) run ./cmd/cable lint -corpus

# Witness stability: every seeded buggy spec must yield its pinned
# separating witness against the known-correct FA
# (internal/speclint/testdata/corpus_witnesses.golden; regenerate with
# `go test ./internal/speclint -run TestCorpusWitnessGolden -update`).
speclint-corpus:
	$(GO) test -run 'TestCorpusWitnessGolden|TestShippedCorpusSemanticClean' -count=1 ./internal/speclint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Includes TestSimSharedAcrossGoroutines (one compiled simulation plan
# hammered from 8 goroutines across every entry point) and the
# zero-allocation pins of internal/fa, internal/verify and internal/stream.
race:
	$(GO) test -race ./...

# A one-iteration pass over the lattice-engine (Table 2 included),
# compiled-simulator, language-engine, stream, session-create, trace-I/O,
# labeling-strategy, learner and enumeration benchmarks, and the workload
# generator and Strauss front end (XtFree's scenario set and runs, and one
# 8,000-scenario Stdio run): catches benchmark-code rot without paying for
# stable measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkBuild$$|BenchmarkLinkCovers|BenchmarkLatticeQueries|BenchmarkLatticeBig|BenchmarkBitset|BenchmarkArena|BenchmarkIncremental|BenchmarkBulkShaped|BenchmarkSortInts' \
	    -benchtime 1x ./internal/concept ./internal/bitset
	$(GO) test -run '^$$' -bench 'BenchmarkExecuted|BenchmarkAccepts|BenchmarkTraceContext|BenchmarkLang' \
	    -benchtime 1x ./internal/fa ./internal/concept
	$(GO) test -run '^$$' -bench 'BenchmarkFeed|BenchmarkManyStreams|BenchmarkIngest|BenchmarkStreamPump|BenchmarkCreateSession' \
	    -benchtime 1x ./internal/stream ./internal/server
	$(GO) test -run '^$$' -bench 'BenchmarkRead|BenchmarkWrite' -benchtime 1x ./internal/trace
	$(GO) test -run '^$$' -bench 'BenchmarkTable2_Lattice|BenchmarkLatticeOps|BenchmarkTable3' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkLearn|BenchmarkEnumerate' -benchtime 1x ./internal/learn ./internal/fa
	$(GO) test -run '^$$' -bench 'BenchmarkGenerate|BenchmarkExtract' -benchtime 1x ./internal/xtrace ./internal/mine

# Run cmd/paper with -metrics and assert the snapshot attributes time to
# the pipeline phases (a span line for lattice.build must be present).
obs-smoke:
	$(GO) run ./cmd/paper -table 2 -metrics 2>&1 >/dev/null | tee /dev/stderr \
	    | grep -q '^span    lattice.build '

# Short fuzz passes over the three text-format round-trip properties
# (traces, automata, Burmeister contexts), the trace reader against its
# line-by-line oracle, every parseable event through a trace file, the
# two semantic-engine differential properties (determinization vs. the
# NFA, complement and self-inclusion vs. the bounded oracle), the
# sk-strings and k-tails learners against their map-and-string oracles,
# the one-pass Strauss front end against its rescanning oracle, the Random
# and Optimal labeling strategies against their oracles on contexts of up
# to 12 objects × 8 attributes, well-formed or not, the lattice builder
# against its full-scan oracle and against incremental adds on contexts of
# up to 16 objects × 80 attributes, and cabled's session snapshot and
# write-ahead log readers (no panic; what they accept re-encodes to the
# input, or the log's accepted prefix, and a version 1 snapshot's fields
# to a version 2 file that parses back to them), and cabled's one-pass
# create and add-traces body decoder against encoding/json.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzReadMatchesOracle$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzEventRoundTrip$$' -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzFAIO$$' -fuzztime 5s ./internal/fa
	$(GO) test -run '^$$' -fuzz '^FuzzConceptIO$$' -fuzztime 5s ./internal/concept
	$(GO) test -run '^$$' -fuzz '^FuzzBuildMatchesOracle$$' -fuzztime 5s ./internal/concept
	$(GO) test -run '^$$' -fuzz '^FuzzDeterminize$$' -fuzztime 5s ./internal/fa
	$(GO) test -run '^$$' -fuzz '^FuzzComplementInclusion$$' -fuzztime 5s ./internal/fa
	$(GO) test -run '^$$' -fuzz '^FuzzLearnMatchesOracle$$' -fuzztime 5s ./internal/learn
	$(GO) test -run '^$$' -fuzz '^FuzzExtractMatchesOracle$$' -fuzztime 5s ./internal/mine
	$(GO) test -run '^$$' -fuzz '^FuzzStrategiesMatchOracle$$' -fuzztime 5s ./internal/strategy
	$(GO) test -run '^$$' -fuzz '^FuzzSessionSnapshot$$' -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzWAL$$' -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMatchesOracle$$' -fuzztime 5s ./internal/server

# Build the real cabled binary, exercise the API over TCP, and assert a
# clean SIGTERM shutdown while a lattice build is in flight. The server
# packages also run under the race detector (they are the concurrent
# surface of the repo).
cabled-smoke:
	$(GO) test -race ./internal/server/... ./cmd/cabled

# Crash-safety acceptance: build the real binary, start it with
# -snapshot-dir, create and label a session over TCP, SIGKILL the process
# (no drain), restart on the same directory, and assert the session comes
# back with every label intact. The in-process persistence tests ride
# along: a torn log tail keeps later records, a newborn session's
# snapshot orders with labels racing it, a deleted session leaves no
# file, each session reuses one log handle and gives its descriptor back,
# get_session's "snapshot" field follows the files, a version 1 snapshot
# restores with its stored lattice skipped, a snapshot whose reference FA
# rejects a stored trace is skipped, and the lattice boot builds is the
# live one byte for byte.
snapshot-smoke:
	$(GO) test -run 'TestSnapshotKillRestart|TestSessionPersistRoundTrip|TestWALTornTail|TestCreateSnapshotRacesLabel|TestWALNotWrittenAfterDelete|TestWALHandleReused|TestWALDescriptorsReturnToBaseline|TestSnapshotFieldFollowsLifecycle|TestVersion1SnapshotRestores|TestVersion1SnapshotIgnoresStoredLattice|TestSnapshotRefRejectingTraceSkipped|TestRestoredLatticeMatchesLive|TestSnapshotTempFilesRemoved' -count=1 \
	    ./cmd/cabled ./internal/server

# Streaming acceptance: the real cabled binary carries 100 open streams
# through a SIGTERM drain and a restart (stream frontiers and violation
# classes persisted), and the in-process soak drives 1000 concurrent
# streams under the race detector with a flat live heap.
stream-smoke:
	$(GO) test -race -run 'TestStreamSmoke|TestStreamSoak' -count=1 \
	    ./cmd/cabled ./internal/server

# perfbench's own suite, the end-to-end correctness gate of the benchmark
# workloads: bulk re-derives its lattice sizes with the naive builder after
# incremental adds, and the paper rows are pinned. perfbench is its own
# module, so it runs under the module settings perfbench/run.sh uses.
perfbench-smoke:
	cd perfbench && GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off $(GO) test -count=1 .

# Full measured run; writes BENCH_lattice.json (name → ns/op, allocs/op)
# and BENCH_obs_snapshot.txt (phase-attributed metrics snapshot).
bench:
	scripts/bench.sh

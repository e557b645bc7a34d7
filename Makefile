# Mirrors .github/workflows/ci.yml so local runs and CI are identical.

GO ?= go

.PHONY: all build test race benchmark-test bench loc fmt fmt-check vet lint inline-check ci serve serve-smoke recover-smoke chaos-smoke cluster-smoke spill-smoke fuzz-smoke cover

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# benchmark/ is a module of its own (replace repro => ../), so ./... above
# does not reach it: vet (an API change here breaks only that build), its
# unit tests plus the 1/20-scale pass of every workload against real server
# processes.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# One iteration per benchmark: a smoke run of every table/figure generator,
# with -benchmem so per-op allocations are visible. BenchmarkIngestBulkShape
# (sim/bench_test.go) is the `bulk` workload's engine configuration in
# process: its ns/op over actions/op predicts that workload's ack time.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x ./...

# Run the serving layer (cmd/simserve) on :8384 with a default tracker.
# Override flags with SERVE_FLAGS, e.g. make serve SERVE_FLAGS='-k 20 -window 100000'.
SERVE_FLAGS ?= -k 10 -window 50000
serve:
	$(GO) run ./cmd/simserve $(SERVE_FLAGS)

# End-to-end serving smoke (also a CI step): boot simserve, POST 1k
# generated actions over HTTP, assert non-empty seeds, SIGTERM drain.
serve-smoke:
	sh ./scripts/serve_smoke.sh

# End-to-end crash-recovery smoke (also a CI step): boot simserve with
# -data-dir, ingest, kill -9, restart twice (snapshot path then WAL-replay
# path) and assert the answer matches an uninterrupted serial run.
recover-smoke:
	sh ./scripts/recover_smoke.sh

# End-to-end fault-injection smoke (also a CI step): boot simserve with a
# deterministic fault plan (-fault rules + -fault-seed, CHAOS_SEED=42),
# ingest through the retrying client so 429/503s are ridden over, kill -9,
# restart clean and assert no acked action was lost and the answer matches
# an uninterrupted run.
chaos-smoke:
	sh ./scripts/chaos_smoke.sh

# End-to-end sharded-serving smoke (also a CI step): boot two simserve
# shards behind a simrouter, ingest through the router (consistent-hash
# partitioned), assert merged seeds/value/cluster health, kill one shard
# and assert flagged partial results without router downtime.
cluster-smoke:
	sh ./scripts/cluster_smoke.sh

# End-to-end tiered-storage smoke (also a CI step): boot simserve under a
# tight -memory-budget, ingest until logs spill to cold segments, kill -9,
# restart and assert recovery MAPPED the segments (cold state back, WAL
# replay covers only the tail) and the answer matches an uninterrupted
# unbudgeted run.
spill-smoke:
	sh ./scripts/spill_smoke.sh

# Short fuzz runs of the six hand-written parsers and the streaming snapshot
# writer (also a CI step): the SIM2 snapshot container, sections written
# through SnapshotWriter.WriteSection in random chunks, the NDJSON stream
# decoders (numeric and name mode; round trip, then against the json.Decoder
# loop they must match), the NDJSON writers against json.Encoder, the
# cold-segment parser, the -fault rule grammar, the WAL and the stream
# payload — plus two model tests: the stream's action index (circular ring
# and pinned-ancestor list) against a map, over ingest/Advance sequences,
# and the sieve grid's gain-bound table against a map of rows, with bounds
# around 255, where a one-byte cell stops holding them. Seed corpora live in
# testdata/fuzz/; new crashers land there too. An index or bound-table input
# runs hundreds of ops, so its new inputs are minimized for at most 5 s
# rather than the default minute, which would take the whole run.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotReader -fuzztime=$(FUZZTIME) ./internal/dataio/
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotSections -fuzztime=$(FUZZTIME) ./internal/dataio/
	$(GO) test -run='^$$' -fuzz=FuzzReadNDJSON -fuzztime=$(FUZZTIME) ./internal/dataio/
	$(GO) test -run='^$$' -fuzz=FuzzNDJSONMatchesJSONDecoder -fuzztime=$(FUZZTIME) ./internal/dataio/
	$(GO) test -run='^$$' -fuzz=FuzzNDJSONWriterBytes -fuzztime=$(FUZZTIME) ./internal/dataio/
	$(GO) test -run='^$$' -fuzz=FuzzSegment -fuzztime=$(FUZZTIME) ./internal/dataio/
	$(GO) test -run='^$$' -fuzz=FuzzParseRules -fuzztime=$(FUZZTIME) ./internal/fault/
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzStreamRestore -fuzztime=$(FUZZTIME) ./internal/stream/
	$(GO) test -run='^$$' -fuzz=FuzzStreamIndex -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./internal/stream/
	$(GO) test -run='^$$' -fuzz=FuzzBoundTable -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./internal/oracle/

# Aggregate coverage profile (also uploaded as a CI artifact).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Size of the program: non-test Go lines outside the benchmark module and its
# build directory — the figure the simplicity PRs report before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# The second line compiles the non-unix halves (lock_other.go) that no other
# step builds, so "runs off unix" is checked rather than assumed.
vet:
	$(GO) vet ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./... && GOOS=windows GOARCH=amd64 $(GO) vet ./internal/dataio ./internal/server

# staticcheck when installed (CI installs it; locally this soft-skips so a
# bare container can still run `make ci`).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# The hot path's smallest helpers must stay inlined: the gain-bound cell
# accessors, on every element's threshold sweep (an out-of-line bound store
# measured +15-20 % cpu_us_per_action), and the stream ring's index helper,
# on every parent lookup. The compiler reports each call it inlines.
INLINED := '(*boundRow).get' '(*boundRow).set' '(*Stream).at'
inline-check:
	@out="$$($(GO) build -gcflags=-m ./internal/oracle ./internal/stream 2>&1)" || { echo "$$out" >&2; exit 1; }; \
	for f in $(INLINED); do \
		echo "$$out" | grep -qF "inlining call to $$f" || { echo "$$f is no longer inlined" >&2; exit 1; }; \
	done; echo "inlined: $(INLINED)"

ci: fmt-check lint inline-check build race benchmark-test bench serve-smoke recover-smoke chaos-smoke cluster-smoke spill-smoke fuzz-smoke cover

# The one definition of every CI step: .github/workflows/ci.yml runs these
# targets, one per step, and `make ci` runs them all locally.

GO ?= go

.PHONY: all build test race benchmark-test bench loc fmt fmt-check vet lint inline-check ci serve smoke fuzz-smoke cover

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

# End-to-end smokes against real processes (also a CI step): the serve,
# recover, chaos, cluster and spill tests of internal/proc build the
# binaries once and drive them on free loopback ports. The spill test boots
# simserve under a tight -memory-budget, kill -9s it once logs have spilled
# to cold segments, and checks the restart mapped them. The smoke build tag
# keeps the package out of ./..., so vet and staticcheck name the tag.
smoke:
	$(GO) test -tags smoke -count=1 ./internal/proc/

# Short fuzz runs of the six hand-written parsers and the streaming snapshot
# writer (also a CI step): the SIM2 snapshot container, sections written
# through SnapshotWriter.WriteSection in random chunks, the NDJSON stream
# decoders (numeric and name mode; round trip, then against the json.Decoder
# loop they must match), the NDJSON writers against json.Encoder, the
# cold-segment parser, the -fault rule grammar, the WAL and the stream
# payload — plus three model tests: the stream's action index (circular ring
# and pinned-ancestor list) against a map, over ingest/Advance sequences,
# the sieve grid's gain-bound table against a map of rows, with bounds
# around 255, where a one-byte cell stops holding them, and a tracker's
# published candidate view against the pool read from scratch — and sim.Load
# over whole tracker images (load, save, reload, save the same bytes, then
# ingest). Seed corpora live in testdata/fuzz/; new crashers land there too.
# An index, bound-table, view or tracker-image input runs hundreds of ops, so
# its new inputs are minimized for at most 5 s rather than the default
# minute, which would take the whole run.
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
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotView -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./sim/
	$(GO) test -run='^$$' -fuzz=FuzzTrackerLoad -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./sim/

# Aggregate coverage profile (also uploaded as a CI artifact). A second full
# run on purpose: -race forces -covermode=atomic, and folding the profile into
# the race run took the race step from 302 s to 526 s on 2 vCPUs (query and
# the oracle grid ran 2.4-5x slower), against the 38 s this run takes.
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
	$(GO) vet -tags smoke ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./... && GOOS=windows GOARCH=amd64 $(GO) vet ./internal/dataio ./internal/server

# staticcheck when installed (CI installs it; locally this soft-skips so a
# bare container can still run `make ci`).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck -tags smoke ./...; \
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

ci: fmt-check vet lint inline-check build race benchmark-test bench smoke fuzz-smoke cover

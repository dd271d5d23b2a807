GO ?= go

.PHONY: build vet test race bench fuzz-short sanitize-sweep equiv smoke-stream smoke-graph

build:
	$(GO) build ./...

# vet is the static gate: go vet plus a gofmt cleanliness check.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The default test target runs the static gate, the plain suite, and the
# race suite: the parallel experiment engine's frozen-trace/space design
# (memoized cells replayed from many goroutines) must keep the race
# detector silent on every change.
# The race suite gets an explicit per-package timeout: the harness
# package replays full (quick-scale) experiments under the detector's
# ~10x slowdown and takes about 22 minutes on a 2-CPU host.
test: build vet
	$(GO) test ./...
	$(GO) test -race -timeout 40m ./...

race:
	$(GO) test -race -timeout 40m ./...

# bench runs the repository's one fixed benchmark (bench/README.md);
# pass its flags through BENCHFLAGS, e.g.
# make bench BENCHFLAGS='-workload replay-bfs -seconds 20'.
BENCHFLAGS ?=
bench:
	bash bench/run.sh $(BENCHFLAGS)

# fuzz-short runs every native fuzz target for a few seconds each,
# starting from the committed corpora in testdata/fuzz/. It is the CI
# smoke for the metamorphic harness; long exploratory sessions use
# `go test -fuzz=<target> -fuzztime=10m ./internal/<pkg>/` directly.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzOpenStream$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzBuilder$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzReadEdgeList$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzBuildStream$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzLaneReserve$$' -fuzztime $(FUZZTIME) ./internal/mem/dram/
	$(GO) test -run '^$$' -fuzz '^FuzzBackendAudit$$' -fuzztime $(FUZZTIME) ./internal/mem/backends/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadRecords$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzTimeq$$' -fuzztime $(FUZZTIME) ./internal/cpu/
	$(GO) test -run '^$$' -fuzz '^FuzzArrayLRU$$' -fuzztime $(FUZZTIME) ./internal/cache/

# sanitize-sweep runs the quick evaluation on each memory substrate in
# MEMS under each placement policy in POLICIES twice, plain and under
# the periodic sanitizer (-check), and requires byte-identical stdout:
# every audit must pass on real traffic without changing a result, on
# every substrate x policy cell. Policy "none" passes no -policy flag
# (each experiment's own configurations).
MEMS ?= hmc ddr lpddr vault
POLICIES ?= none auto host pim upei
SWEEPDIR ?= $(or $(TMPDIR),/tmp)/graphpim-sanitize
sanitize-sweep:
	mkdir -p $(SWEEPDIR)
	$(GO) build -o $(SWEEPDIR)/graphpim ./cmd/graphpim
	set -e; for m in $(MEMS); do for p in $(POLICIES); do \
		flag=""; if [ "$$p" != none ]; then flag="-policy $$p"; fi; \
		out=$(SWEEPDIR)/$$m.$$p; \
		$(SWEEPDIR)/graphpim run -quick -q -format json -mem $$m $$flag all > $$out.json; \
		$(SWEEPDIR)/graphpim run -quick -q -format json -mem $$m $$flag -check all > $$out.check.json; \
		cmp $$out.json $$out.check.json; \
		echo "sanitize-sweep: $$m/$$p identical under -check"; \
	done; done

# equiv is the output-equivalence gate for refactors that must not move
# a number: it builds BASE (from git archive) and the working tree, runs
# both on every quick experiment (plain and -check), the quick run on
# each non-HMC substrate, default-scale workloads and the examples, and
# cmp's every stdout/stderr pair (scripts/equiv.sh). EQUIVSCOPE=quick
# stops after the quick-scale part.
EQUIVSCOPE ?= all
equiv:
	@test -n "$(BASE)" || { echo "usage: make equiv BASE=<rev> [EQUIVSCOPE=quick]"; exit 2; }
	bash scripts/equiv.sh $(BASE) $(EQUIVSCOPE)

# smoke-stream runs the million-vertex streaming smoke test under a
# constrained GC target: a 1M-vertex BFS traced through the spill
# pipeline and replayed end to end must fit a 1GiB heap — less than
# half of what the materialized trace alone would need (~2GB, 127M
# records x 16B), on top of the ~600MB graph + property live set both
# pipelines share.
smoke-stream:
	GRAPHPIM_STREAM_SMOKE=1 GOMEMLIMIT=1GiB \
		$(GO) test -run '^TestStreamSmoke$$' -v -timeout 30m ./internal/harness/

# smoke-graph runs the paper-scale graph smokes. First the 11M-vertex
# twitter-shaped build (Table VII: 11M/85M) under a GC target below the
# would-be []Edge bytes (~1016MB): the streaming two-pass build's peak —
# final CSR included — must fit where the old edge list alone would not
# have. Then the LDBC-1M byte-identity check against the materializing
# oracle (Builder in internal/graph/builder_test.go), which needs
# headroom for the oracle's materialized edge list (that being the point).
smoke-graph:
	GRAPHPIM_GRAPH_SMOKE=1 GOMEMLIMIT=950MiB \
		$(GO) test -run '^TestGraphSmokeTwitter11M$$' -v -timeout 30m ./internal/graph/
	GRAPHPIM_GRAPH_SMOKE=1 GOMEMLIMIT=6GiB \
		$(GO) test -run '^TestStreamEquivalenceMillion$$' -v -timeout 30m ./internal/graph/

# Developer entry points. `make check` is the extended verify recorded in
# ROADMAP.md: vet + formatting + repo-specific lint + tier-1 build/tests +
# race tests on the concurrency-bearing packages of the message path.

GO ?= go
RACE_PKGS := ./internal/mpi ./internal/task ./internal/tampi ./internal/membuf \
	./internal/simnet ./internal/amr/grid ./internal/amr/app ./internal/driver \
	./internal/hydro ./internal/harness ./internal/wire ./internal/analysis

GOLDEN_DIR := internal/analysis/testdata/golden
PERF_GOLDEN_DIR := $(GOLDEN_DIR)/perf

.PHONY: test vet fmt-check lint graph golden perf sanitize chaos race transport bench-test loc check

# The timeouts sit well above the slowest package's time, so that a
# deadlock (say, a Spawn parked for good) fails with a goroutine dump
# instead of hanging until Go's 10-minute default.
test:
	$(GO) build ./...
	$(GO) test -timeout 5m ./...

# Alongside the default vet suite, explicitly enable the three analyzers
# that matter most to the concurrency substrate: copylocks (a copied
# mutex is a silently-broken lock), lostcancel (leaked contexts) and
# unusedresult (dropped errors from pure functions).
vet:
	$(GO) vet ./...
	$(GO) vet -copylocks -lostcancel -unusedresult ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# amrlint enforces the repo's ownership, collective, concurrency and
# determinism invariants (leaselint, reqlint, deplint, collectivelint,
# conclint, determlint) on the source; amrgraph records the driver task
# graphs by running the drivers, checks them (graphlint) and diffs them
# against the committed goldens, and amrperf does the same for their
# performance profiles (perflint). All exit non-zero on findings or drift.
lint:
	$(GO) run ./cmd/amrlint ./...
	$(GO) run ./cmd/amrgraph -check $(GOLDEN_DIR)
	$(GO) run ./cmd/amrperf -check $(PERF_GOLDEN_DIR)

# Render the recorded driver task graphs as DOT under build/graphs (pipe
# through `dot -Tsvg` to visualise).
graph:
	$(GO) run ./cmd/amrgraph -format dot -o build/graphs

# Refresh the committed golden text graphs and performance profiles
# after an intentional change to a driver pipeline or a recorded
# configuration.
golden:
	$(GO) run ./cmd/amrgraph -update $(GOLDEN_DIR)
	$(GO) run ./cmd/amrperf -update $(PERF_GOLDEN_DIR)

# Performance model: diff the per-driver profiles (critical path,
# concurrency width, communication) of the recorded graphs against the
# committed goldens and emit the machine-readable JSON profiles under
# build/perf (the CI artifact). Allocation budgets are measured, not
# modelled: they are the TestAllocBudgets tables of the hot packages'
# alloc_guard_test.go, run by `make test`.
perf:
	$(GO) run ./cmd/amrperf -check $(PERF_GOLDEN_DIR)
	$(GO) run ./cmd/amrperf -format json -o build/perf

# amrsan: the seeded-violation corpus plus full driver runs with the
# runtime sanitizer forced on (AMRSAN=1), which must stay clean.
sanitize:
	$(GO) test ./internal/sanitize
	AMRSAN=1 $(GO) test ./internal/amr/app ./internal/hydro

# chaos: the seeded fault-injection suite — injector determinism, MPI
# matching under drops/duplicates/spikes, watchdog fault-awareness, and
# the per-driver bit-identical-checksum regression.
chaos:
	$(GO) test -run 'Chaos|Fault|Partition|Stall|Cut' ./internal/simnet ./internal/mpi \
		./internal/sanitize ./internal/tampi ./internal/harness ./internal/hydro

race:
	$(GO) test -race -timeout 5m $(RACE_PKGS)

# transport: the wire-transport proof chain under the race detector —
# the conformance suite over both fabrics (channel and real loopback
# TCP), the fuzz seed corpora of the wire codec, the transport
# equivalence property, and the cross-process oracle (2 OS processes,
# bit-identical checksums and fault logs vs the in-process run).
transport:
	$(GO) test -race -run 'Conformance|Fuzz|ReadFrame|Equivalence' ./internal/wire ./internal/mpi
	$(GO) test -race -run 'CrossProcess|MultiProc' ./internal/harness

# bench-test: the benchmark is a module of its own (bench/go.mod), so the
# root `go test ./...` does not see it. Its unit tests and 4 s smoke run of
# the whole runner compile against the public API of internal/task, tampi,
# mpi and the harness: an API break surfaces here, not in the benchmark
# driver.
bench-test:
	cd bench && $(GO) test ./...

# loc: non-test Go lines per package and in total (testdata/ and the
# bench/ module excluded), failing when the total exceeds the number in
# LOC_BUDGET. The rule is "the repository does not grow": a change that
# needs more lines than it deletes raises LOC_BUDGET in the same diff,
# where review sees it; a change that shrinks the tree lowers it.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' ! -path './.*/*' \
		| sort | xargs awk -v budget="$$(cat LOC_BUDGET)" \
		'{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); if (!(d in n)) order[++dirs] = d; n[d]++; total++ } \
		END { for (i = 1; i <= dirs; i++) printf "%7d %s\n", n[order[i]], order[i]; \
		printf "%7d total (LOC_BUDGET %d)\n", total, budget; \
		if (total > budget) { print "non-test Go lines exceed LOC_BUDGET: delete code, or raise the budget in this diff" > "/dev/stderr"; exit 1 } }'

check: vet fmt-check lint test perf sanitize chaos race transport bench-test loc

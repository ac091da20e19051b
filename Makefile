# Convenience targets; everything here is plain go tool invocations.

.PHONY: test race lint golden golden-check serve-smoke fuzz bench bench-scale

test:
	go build ./... && go test ./...

race:
	go test -race ./...

# Determinism lint: build rbvet (the repo's go/analysis-style
# multichecker, see DESIGN.md "Determinism lint") and run it over the
# whole module through cmd/go's -vettool protocol, so results are
# cached per package like any other vet check. Findings exit nonzero;
# suppressions happen in source via //rbvet:allow <analyzer> <reason>.
lint:
	go build -o bin/rbvet ./cmd/rbvet
	go vet -vettool=$(CURDIR)/bin/rbvet ./...

# Regenerate the checked-in golden JSON documents after a change that
# intentionally moves the numbers (a new family instance, a new ladder
# rung, an engine change allowed to reorder randomness). CI and the
# cmd/rbexp tests diff rbexp's output against these bytes.
golden:
	go run ./cmd/rbexp -exp families -json -q -seed 1 > cmd/rbexp/testdata/families_golden.json
	go run ./cmd/rbexp -exp matrix -json -q -seed 1 > cmd/rbexp/testdata/matrix_golden.json
	go run ./cmd/rbexp -exp dropoff -json -q -seed 1 > cmd/rbexp/testdata/dropoff_golden.json

# Diff rbexp's current output against the checked-in goldens without
# touching them, failing loudly on any drift. The golden documents are
# produced on the default in-process transport; transports must never
# move them (the UDP equivalence tests pin that).
golden-check:
	@status=0; \
	for exp in families matrix dropoff; do \
		go run ./cmd/rbexp -exp $$exp -json -q -seed 1 | \
			diff -u cmd/rbexp/testdata/$${exp}_golden.json - || \
			{ echo "GOLDEN DRIFT: $$exp (regenerate deliberately with 'make golden')"; status=1; }; \
	done; exit $$status

# End-to-end smoke for `rbexp serve` over real sockets: start a server
# on a fresh cache, submit the families grid, diff the aggregate tables
# endpoint against the checked-in golden, and assert a warm re-submit
# executes zero cells (see scripts/serve_smoke.sh; CI's serve job runs
# exactly this target).
serve-smoke:
	./scripts/serve_smoke.sh

# The two measured benchmark suites, invoked exactly as the CI bench
# job runs them (see .github/workflows/ci.yml) so local numbers are
# comparable to the gated ones. bench is the sub-second dense-round,
# sparse-calendar and protocol-path (one end-to-end NW, MP and epidemic
# broadcast each, whose allocs/op CI budgets) suites, with -benchmem;
# bench-scale is the 100k+ regime — single iterations, 3 counts,
# -benchmem — plus the opt-in million-device round when
# BENCH_SCALE_1M=1 is exported.
bench:
	go test -run '^$$' -bench 'BenchmarkDenseRound(Linear|Indexed|4096|Disk)|BenchmarkSparseCalendar|BenchmarkSingleBroadcast(NW|MP|Epidemic)$$' \
		-count 5 -benchtime 0.3s -benchmem . ./internal/sim

bench-scale:
	go test -run '^$$' -bench 'BenchmarkDenseRound(65536|262144|1M)$$' \
		-count 3 -benchtime 1x -benchmem .

# Short local fuzz pass over the -param parser, the typed getters, the
# adversary-mix label parser and the fault-plan grammar (CI replays the
# checked-in corpus under testdata/fuzz on every run).
fuzz:
	go test ./internal/core/ -fuzz FuzzParseParam -fuzztime 30s -run '^$$'
	go test ./internal/core/ -fuzz FuzzParamsGetters -fuzztime 30s -run '^$$'
	go test ./internal/experiment/ -fuzz FuzzParseMix -fuzztime 30s -run '^$$'
	go test ./internal/faultnet/ -fuzz FuzzParsePlan -fuzztime 30s -run '^$$'

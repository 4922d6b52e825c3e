# Developer entry points. The go toolchain is the only dependency.

.PHONY: test bench bench-check plan-baseline lint

test:
	go build ./... && go test ./...

# lint runs tailvet, the repo's own analyzer suite (see internal/lint),
# through the go vet driver so every package is fully type-checked. CI
# additionally runs staticcheck; locally that is optional.
lint:
	go build -o bin/tailvet ./cmd/tailvet
	go vet -vettool=bin/tailvet ./...

# bench regenerates the committed engine-throughput baseline: events/second
# of the virtual-time cluster engine and the multi-tier pipeline event
# queue, with and without tracing. Commit the refreshed BENCH_sim.json so
# the perf trajectory stays reviewable PR-over-PR.
bench:
	go test -run '^$$' -bench 'BenchmarkSimCluster|BenchmarkPipelineSim' -benchtime 2s \
		./internal/cluster ./internal/pipeline | go run ./cmd/benchjson > BENCH_sim.json
	@cat BENCH_sim.json

# bench-check compiles, tests and smoke-runs the repository benchmark.
# bench/ is a module of its own, so `go build ./...` and `go test ./...` at
# the root never load it: without this, a refactor that breaks the API it
# compiles against goes unnoticed until the benchmark is next run.
bench-check:
	go -C bench vet .
	go -C bench test .
	bash bench/run.sh --quick --seed 1

# plan-baseline regenerates the committed planner search-cost baseline: the
# events-simulated count of each optimization stage on a pinned search
# space. The count is deterministic, so CI fails if any stage grows —
# commit the refreshed BENCH_planner.json when the search itself changes.
plan-baseline:
	go run ./cmd/tailbench-plan -policies leastq,random -fanouts 1,4 -seed 42 \
		-study -bench BENCH_planner.json
	@cat BENCH_planner.json

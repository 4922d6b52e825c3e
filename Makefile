# Developer entry points. The go toolchain is the only dependency.

.PHONY: test bench-check lint loc

test:
	go build ./... && go test ./...

# lint runs tailvet, the repo's own analyzer suite (see internal/lint),
# through the go vet driver so every package is fully type-checked. CI
# additionally runs staticcheck; locally that is optional.
lint:
	go build -o bin/tailvet ./cmd/tailvet
	go vet -vettool=bin/tailvet ./...

# bench-check compiles, tests and smoke-runs the repository benchmark.
# bench/ is a module of its own, so `go build ./...` and `go test ./...` at
# the root never load it: without this, a refactor that breaks the API it
# compiles against goes unnoticed until the benchmark is next run.
bench-check:
	go -C bench vet .
	go -C bench test .
	bash bench/run.sh --quick --seed 1

# loc prints the size of the tracked non-test Go source per group (the root
# package, each top-level directory, each internal/<pkg>): raw lines, and
# code lines (raw minus blank and comment-only lines). ROADMAP asks every
# design PR to report its line delta; this is the one way to count it.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '/testdata/' | awk ' \
	{ n = split($$0, p, "/"); \
	  g = n == 1 ? "(root)" : (p[1] == "internal" ? p[1] "/" p[2] : p[1] "/"); \
	  block = 0; \
	  while ((getline line < $$0) > 0) { \
	    raw[g]++; \
	    sub(/^[ \t]+/, "", line); \
	    if (block) { if (line ~ /\*\//) block = 0; continue } \
	    if (line == "" || line ~ /^\/\//) continue; \
	    if (line ~ /^\/\*/) { if (line !~ /\*\//) block = 1; continue } \
	    code[g]++ } \
	  close($$0) } \
	END { printf "%-20s %7s %7s\n", "group", "raw", "code"; \
	  for (g in raw) { printf "%-20s %7d %7d\n", g, raw[g], code[g] | "sort"; tr += raw[g]; tc += code[g] } \
	  close("sort"); \
	  printf "%-20s %7d %7d\n", "total", tr, tc }'

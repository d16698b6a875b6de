# Maxoid reproduction — common tasks.

GO ?= go

.PHONY: all build test race vet fmt staticcheck check fuzz chaos bench bench-index advisor tables audit demo examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing them, when gofmt would change files.
fmt:
	@files=$$(gofmt -l .); test -z "$$files" || { echo "gofmt would reformat:"; echo "$$files"; exit 1; }

# Static analysis beyond vet. The tool is not vendored: run it when
# installed (CI installs it), skip with a notice otherwise so local
# `make check` works offline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# The full gate: what CI runs on every push.
check: build fmt vet staticcheck test race fuzz

# Short coverage-guided fuzzing smoke over the SQL front end, the WAL
# decoders and the gateway's path parser and row encoder. Each target
# needs its own invocation: go test allows one -fuzz pattern per run.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTokenize -fuzztime 10s ./internal/sqldb
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/sqldb
	$(GO) test -run '^$$' -fuzz FuzzNormalize -fuzztime 10s ./internal/sqldb
	$(GO) test -run '^$$' -fuzz FuzzFormat -fuzztime 10s ./internal/sqldb
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzGatewayPath -fuzztime 10s ./internal/gateway
	$(GO) test -run '^$$' -fuzz FuzzRowsResponse -fuzztime 10s ./internal/gateway

# Deterministic fault-injection run: every engine, race detector on.
# Same seed => same fault schedule, same verdict. The extra kill-engine
# seeds push the total well past 500 process kills per invocation, all
# of which must drain leak-free with typed errors only.
chaos:
	$(GO) run -race ./cmd/maxoid-chaos -engine all -seed 42
	$(GO) run -race ./cmd/maxoid-chaos -engine overload -seed 7 -ops 4000
	$(GO) run -race ./cmd/maxoid-chaos -engine kill -seed 1 -ops 2000
	$(GO) run -race ./cmd/maxoid-chaos -engine kill -seed 2 -ops 2000
	$(GO) run -race ./cmd/maxoid-chaos -engine kill -seed 7 -ops 2000
	$(GO) run -race ./cmd/maxoid-chaos -engine recover -seed 7 -ops 3000
	$(GO) run -race ./cmd/maxoid-chaos -engine recover -seed 1337 -ops 3000
	$(GO) run -race ./cmd/maxoid-chaos -engine degrade -seed 7
	$(GO) run -race ./cmd/maxoid-chaos -engine degrade -seed 1337
	$(GO) run -race ./cmd/maxoid-chaos -engine gateway -seed 7
	$(GO) run -race ./cmd/maxoid-chaos -engine gateway -seed 1337

# The paper's evaluation as Go benchmarks (Tables 3-5 + ablations).
bench:
	$(GO) test -bench . -benchmem ./...

# Secondary-index benchmark artifact: probe-only microbenchmarks from
# the sqldb package folded into the end-to-end million-row report.
bench-index:
	$(GO) test -run '^$$' -bench 'Probe1M|Range1M|Indexed1M' -benchtime 100000x ./internal/sqldb | tee probe-micro.txt
	$(GO) run ./cmd/maxoid-indexbench -rows 1000000 -micro probe-micro.txt -out BENCH_PR6.json

# Workload-driven index advisor on the Media/Downloads providers.
advisor:
	$(GO) run ./cmd/maxoid-advisor -apply

# The paper's evaluation printed in the paper's table format.
tables:
	$(GO) run ./cmd/maxoid-bench

# Table 1: state left behind, stock vs confined.
audit:
	$(GO) run ./cmd/maxoid-audit

# Table 2 mounts, Figure 6 SQL dump, §7.1 use cases.
demo:
	$(GO) run ./cmd/maxoid-demo

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dropbox
	$(GO) run ./examples/incognito
	$(GO) run ./examples/ppriv
	$(GO) run ./examples/launcher

clean:
	$(GO) clean ./...

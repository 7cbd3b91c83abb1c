# Schema Integration Tool — build and verification targets.
#
# VERSION is stamped into every binary via internal/version; override it
# on the command line: make build VERSION=1.2.3

VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS  = -X repro/internal/version.Version=$(VERSION)
BINDIR   = bin

.PHONY: all build check vet sit-vet test race loadgen bench-assertions bench-translate clean

all: check

# Full verification: everything compiles, vet (standard and project
# analyzers) is clean, tests pass under the race detector.
check:
	go build ./...
	go vet ./...
	$(MAKE) sit-vet
	go test -race ./...

build:
	go build -ldflags '$(LDFLAGS)' -o $(BINDIR)/ ./cmd/...

vet:
	go vet ./...
	$(MAKE) sit-vet

# sit-vet runs the project-specific analyzers (lock discipline, error
# classification, journal ordering, metric cardinality, I/O under locks,
# lock-order deadlock detection, hot-path allocations, directive hygiene)
# twice: once through the go vet driver (rides go's build cache) and once
# in standalone module mode, which also analyzes _test.go files — go vet
# never hands test variants to a vettool.
sit-vet:
	go build -o $(BINDIR)/sit-vet ./cmd/sit-vet
	go vet -vettool=$(BINDIR)/sit-vet ./...
	$(BINDIR)/sit-vet -mod -cache $(BINDIR)/sit-vet.factcache ./...

test:
	go test ./...

race:
	go test -race ./...

# loadgen runs the CI-scale admission-control load harness: 100 open-loop
# tenants, three phases, ~30 seconds. See cmd/sit-loadgen.
loadgen:
	go run ./cmd/sit-loadgen -smoke -v

# bench-assertions sweeps the incremental closure engine against the dense
# re-closure at 10^3..10^6 assertions and rewrites BENCH_assertions.json.
bench-assertions:
	go test -run=TestWriteAssertionBenchReport -assertion-bench-report .

# bench-translate sweeps whole-source parse throughput per schema frontend
# at 10^2..10^4 entity sets and rewrites BENCH_translate.json.
bench-translate:
	go test -run=TestWriteTranslateBenchReport -translate-bench-report .

clean:
	rm -rf $(BINDIR)

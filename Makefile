# hrdb — hierarchical relational model (Jagadish, SIGMOD '89)

GO ?= go
FUZZTIME ?= 30s

.PHONY: all help build test test-crash test-server test-compat test-obs test-repl test-failover test-shard test-view test-bench race cover bench bench-smoke bench-json benchgate figures experiments fuzz fuzz-smoke loc clean

all: build test

help:
	@echo "hrdb targets:"
	@echo "  build        compile and vet all packages"
	@echo "  test         run the unit tests (plus vet and a race pass"
	@echo "               over the storage, core, server, and obs packages)"
	@echo "  test-crash   crash the WAL at every byte offset and verify"
	@echo "               recovery of the exact committed prefix"
	@echo "  test-server  race-mode pass over the network service layer"
	@echo "               (overload shedding, drain, chaos proxy, stream mux)"
	@echo "  test-compat  wire compatibility: replay the recorded framed-client"
	@echo "               transcript byte for byte, refuse line-protocol"
	@echo "               requests with one ERR proto, version/tenant matrix"
	@echo "  test-obs     race-mode pass over the observability layer"
	@echo "               (metrics registry, histograms, slow-query log)"
	@echo "  test-repl    race-mode pass over the replication subsystem"
	@echo "               (WAL shipping, chaos severs, failover/promote)"
	@echo "  test-failover race-mode pass over the self-healing failover"
	@echo "               path (elections, fencing, deposed rejoin, router"
	@echo "               re-discovery); CHAOS_ROUNDS=<n> soaks the chaos"
	@echo "               loops beyond their default round counts"
	@echo "  test-shard   race-mode pass over the sharding subsystem"
	@echo "               (placement, scatter-gather, 2PC chaos, coordinator"
	@echo "               failover through a shard's replica set);"
	@echo "               CHAOS_ROUNDS=<n> soaks the 2PC chaos loop"
	@echo "  test-view    race-mode pass over materialized views and change"
	@echo "               feeds (differential view-vs-recompute property tests,"
	@echo "               SUBSCRIBE resume, feed endings and chaos severs) and"
	@echo "               the reference tests of the kernels the folds stand on"
	@echo "  test-bench   vet and test the request-path benchmark (bench/ is a"
	@echo "               module of its own, so the root build never compiles"
	@echo "               it and an internal-API break would go unnoticed)"
	@echo "  race         run the tests under the race detector"
	@echo "               (includes the concurrency stress suites)"
	@echo "  cover        coverage summary for internal/..."
	@echo "  bench        full benchmark sweep (figures + experiments;"
	@echo "               tests are skipped via -run '^$$')"
	@echo "  bench-smoke  quick pass over the batch-evaluation and"
	@echo "               verdict-cache benchmarks only"
	@echo "  bench-json   machine-readable BENCH_<exp>.json for the consolidate,"
	@echo "               explicate, consistency, planner, protocol, sharding,"
	@echo "               and view experiments (E3, E4, E6, E9, E12-E15)"
	@echo "  benchgate    regression gate: fresh bench-json numbers vs the"
	@echo "               checked-in scripts/bench_baseline/ (~3x tolerance)"
	@echo "  figures      regenerate the paper figures (cmd/hrfigures)"
	@echo "  experiments  print the E1-E15 experiment tables (cmd/hrbench)"
	@echo "  fuzz         run the fuzz targets for FUZZTIME ($(FUZZTIME)) each"
	@echo "  fuzz-smoke   run the fuzz targets for 15s each (CI)"
	@echo "  loc          non-test Go lines per package under internal/ and"
	@echo "               cmd/, and for hrdb.go, with a total"

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/storage/ ./internal/core/ ./internal/server/ ./internal/wire/ ./internal/obs/ ./internal/repl/ ./internal/dag/ ./internal/hierarchy/ ./internal/algebra/ ./internal/view/

test-crash:
	$(GO) test -run 'TestCrash' -count=1 -v ./internal/storage/

test-server:
	$(GO) test -race -count=1 ./internal/server/

test-compat:
	$(GO) test -race -count=1 -run 'TestWireTranscript|TestV1LineRefused|TestCrossVersionMatrix|TestTenantNamespaceIsolation|TestUnknownTenantFailsDial|TestOneConnectionPerClient|TestReplStreamSharesConnection' ./internal/server/
	$(GO) test -race -count=1 -run 'TestFrameResponseRejectsUnknownType|TestFeedOverflow|TestFeedFrameBound' ./internal/wire/

test-obs:
	$(GO) test -race -count=1 ./internal/obs/

test-repl:
	$(GO) test -race -count=1 ./internal/repl/
	$(GO) test -race -count=1 -run 'TestReplStreamSharesConnection|TestFeedEndsWithOneErr|TestIdleTimeoutSparesBusyConnections' ./internal/server/

test-failover:
	$(GO) test -race -count=1 -run 'TestAutoFailover|TestFencedPrimary|TestDeposedPrimary|TestBootstrapDuring|TestReplicaStateGauge|TestRouterFailsOver|TestRouterStale|TestRouterConcurrent|TestShutdownRefuses' ./internal/repl/ ./internal/server/

test-shard:
	$(GO) test -race -count=1 ./internal/shard/
	$(GO) test -race -count=1 -run 'TestShard|TestDialCluster' .

test-view:
	$(GO) test -race -count=1 ./internal/view/
	$(GO) test -race -count=1 -run 'TestSubscribe|TestFeedEnds|TestTenantHooks|TestOneConnectionPerClient|TestClientCloseEndsNext|TestIdleTimeoutSparesBusyConnections' ./internal/server/
	$(GO) test -race -count=1 -run 'TestFeedOverflow' ./internal/wire/
	$(GO) test -race -count=1 -run 'TestAncestors|TestOverlaps|TestOverlapRegion|TestConflictsSignPartition|TestPropertyReconsolidate|TestKernel' ./internal/dag/ ./internal/hierarchy/ ./internal/core/

test-bench:
	cd bench && $(GO) vet . && $(GO) test .

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

# -run '^$' keeps the crash/chaos test suites out of benchmark runs: they
# dominate wall clock and add nothing to the measurements.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluateBatch|BenchmarkHoldsCached' -benchtime=50x .

bench-json:
	$(GO) run ./cmd/hrbench -json . E3 E4 E6 E9 E12 E13 E14 E15

benchgate:
	./scripts/benchgate.sh

figures:
	$(GO) run ./cmd/hrfigures

experiments:
	$(GO) run ./cmd/hrbench

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/hql/
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzOpenLog -fuzztime=$(FUZZTIME) ./internal/storage/
	$(GO) test -fuzz=FuzzCrashOffset -fuzztime=$(FUZZTIME) ./internal/storage/
	$(GO) test -fuzz=FuzzReadSnapshot -fuzztime=$(FUZZTIME) ./internal/storage/
	$(GO) test -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/storage/

fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=15s

loc:
	./scripts/loc.sh

clean:
	rm -f cover.out test_output.txt bench_output.txt

#!/bin/sh
# check.sh — the gate a change must pass before it lands:
#   vet (stock go vet plus the chipkillvet contract analyzers, plus
#   pinned staticcheck/govulncheck when the network allows fetching
#   them) + build + full tests (including the smoke fault campaigns and the
#   checked-in fuzz seed corpora), race detector on the concurrent
#   packages, a short coverage-guided fuzz pass over both decoders, the
#   standard fault-injection campaign suite, and the kernel regression
#   harness (refreshes BENCH_kernels.json and fails on a fast-path/
#   reference speedup regression).
#
# Usage: scripts/check.sh [-quick]
#   -quick skips the race pass, the fuzz smoke, the standard campaign
#   suite, and the benchmark harness.
set -eu
cd "$(dirname "$0")/.."

quick=false
[ "${1:-}" = "-quick" ] && quick=true

echo "== go vet"
go vet ./...

echo "== chipkillvet (contract analyzers: noalloc shardlock sentinel bankaccess seqlock lockorder guardedby)"
go run ./cmd/chipkillvet ./...

# Third-party static analysis, pinned and fetched on demand. Offline
# sandboxes (empty module cache, no proxy) skip them; CI always has the
# network and runs both.
STATICCHECK_VERSION=${STATICCHECK_VERSION:-2024.1.1}
GOVULNCHECK_VERSION=${GOVULNCHECK_VERSION:-v1.1.3}
if [ "${SKIP_THIRDPARTY_ANALYZERS:-}" = "1" ]; then
	echo "== staticcheck/govulncheck skipped (SKIP_THIRDPARTY_ANALYZERS=1)"
elif GOFLAGS= go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" -version >/dev/null 2>&1; then
	echo "== staticcheck ($STATICCHECK_VERSION)"
	GOFLAGS= go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" ./...
	echo "== govulncheck ($GOVULNCHECK_VERSION)"
	GOFLAGS= go run "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION" ./...
else
	echo "== staticcheck/govulncheck unavailable (offline module cache); skipping"
fi

echo "== go build"
go build ./...

echo "== go test"
go test ./... -count=1

if ! $quick; then
	echo "== go test -race (core, rank, memctrl, sim, inject, engine, guard, fleet)"
	go test -race -count=1 ./internal/core/... ./internal/rank/... \
		./internal/memctrl/... ./internal/sim/... ./internal/inject/... \
		./internal/engine/... ./internal/guard/... ./internal/fleet/...

	echo "== fuzz smoke (10s per target)"
	go test ./internal/bch/ -fuzz=FuzzDecode -fuzztime=10s
	go test ./internal/rs/ -fuzz=FuzzDecode -fuzztime=10s
	go test ./internal/rs/ -fuzz=FuzzErasureSolver -fuzztime=10s
	go test ./internal/guard/ -fuzz=FuzzJournalDecode -fuzztime=10s

	echo "== fault campaigns (standard suite)"
	go run ./cmd/faultcampaign -suite standard

	echo "== fault campaigns (fleet suite)"
	go run ./cmd/faultcampaign -suite fleet

	echo "== kernel benchmarks -> BENCH_kernels.json"
	go run ./cmd/benchkernels -check

	# Short-benchtime smoke of the end-to-end throughput harness: checks
	# the harness runs and emits a well-formed report without gating on
	# timing (refresh the committed numbers with `make benchruntime`).
	echo "== runtime throughput harness (short)"
	rt_tmp=$(mktemp)
	go run ./cmd/benchruntime -benchtime 25ms -out "$rt_tmp"
	go run ./cmd/benchruntime -validate "$rt_tmp"
	rm -f "$rt_tmp"
fi

echo "OK"

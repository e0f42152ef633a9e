#!/bin/sh
# check.sh — the gate a change must pass before it lands:
#   vet (stock go vet, a gofmt check and the chipkillvet contract
#   analyzers, plus pinned staticcheck/govulncheck when the network
#   allows fetching them) + build + full tests (including the smoke fault campaigns, the
#   checked-in fuzz seed corpora and the quick pass of ./bench over every
#   workload and the ladder), then `make race` (race detector on the
#   concurrent packages), `make fuzz` (a short coverage-guided pass per
#   fuzz target), `make bench-smoke` (one iteration of every kernel
#   benchmark and of the root recovery benchmarks, for their correctness
#   checks) and the standard, guard and
#   fleet fault-injection campaign suites. The race package list, the fuzz
#   targets and the benchmark packages live in the Makefile only. Nothing here times anything or writes a tracked file:
#   performance is compared same-host with scripts/benchpair.sh, and a
#   change that must keep every campaign answer is compared with its base
#   by scripts/campaigndiff.sh <base-ref> [suite...].
#
# Usage: scripts/check.sh [-quick]
#   -quick skips the race pass, the fuzz pass, the benchmark smoke and the
#   campaign suites.
set -eu
cd "$(dirname "$0")/.."

quick=false
[ "${1:-}" = "-quick" ] && quick=true

echo "== go vet"
go vet ./...
# soak_test.go builds only under the soak tag, which the nightly job
# alone runs; vet it here so a harness change cannot break it unseen.
go vet -tags soak ./internal/inject/
# Likewise the full RS enumeration behind the exhaustive tag.
go vet -tags exhaustive ./internal/rs/
# Off amd64 the BCH remainder builds only its table kernel; vet that build
# too so the fallback keeps compiling.
GOARCH=arm64 go vet ./...

echo "== gofmt"
test -z "$(gofmt -l .)"

echo "== chipkillvet (contract analyzers: noalloc rankwide sentinel seqlock lockorder guardedby)"
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
	echo "== make race"
	make race

	echo "== make fuzz"
	make fuzz

	echo "== make bench-smoke"
	make bench-smoke

	echo "== fault campaigns (standard suite)"
	go run ./cmd/faultcampaign -suite standard

	echo "== fault campaigns (guard suite)"
	go run ./cmd/faultcampaign -suite guard

	echo "== fault campaigns (fleet suite)"
	go run ./cmd/faultcampaign -suite fleet
fi

echo "OK"

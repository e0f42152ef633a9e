# Standard entry points; scripts/check.sh is the single source of truth
# for what "passing" means.

.PHONY: all build test race bench bench-smoke profile check check-quick campaign fleet-campaign soak fuzz vet

all: build

build:
	go build ./...

# Contract analyzers (internal/analysis) on top of stock go vet: the
# noalloc/rankwide/sentinel/seqlock/lockorder/guardedby
# rules over the whole repo.
vet:
	go vet ./...
	go run ./cmd/chipkillvet ./...

test:
	go test ./... -count=1

race:
	go test -race -count=1 ./internal/bch/... ./internal/rs/... ./internal/nvram/... ./internal/core/... ./internal/rank/... \
		./internal/memctrl/... ./internal/sim/... ./internal/inject/... \
		./internal/engine/... ./internal/guard/... ./internal/fleet/... ./internal/obs/...

# Kernel microbenchmarks: each table-driven kernel next to its retained
# bit-serial / poly-div reference, so one run shows the fast-vs-reference
# ratios on this host, plus the nine-chip row-miss write whose EUR drains
# run the BCH delta encode with the chip cells competing for cache, the
# nine-chip row-streaming write run in parallel on disjoint banks (run it
# with -cpu 1,2 to see cross-bank cache-line contention), and the rank's
# resolve-once block write on a row hit and on a row miss.
# End-to-end and per-layer numbers are `go run ./bench` (bench/README.md).
KERNEL_BENCH = 'Kernel|WriteXORRowMiss|WriteXORParallel|WriteBlockXORRow'
KERNEL_PKGS = ./internal/gf/ ./internal/bch/ ./internal/rs/ ./internal/nvram/ ./internal/rank/
bench:
	go test -run xxx -bench $(KERNEL_BENCH) -benchmem $(KERNEL_PKGS)

# One iteration of every kernel benchmark: they carry b.Fatal correctness
# checks (decode counts, clean words staying clean) that nothing else runs.
# Then one iteration of the root package's recovery benchmarks, the ones
# `make profile` takes: the boot scrub, its one-pass chip rebuild and the
# fleet's chip repair, so a change that breaks their set-up or their
# b.Fatal checks fails here rather than at the next profile.
RECOVERY_BENCH = '^Benchmark(BootScrub|ChipkillRebuild|FleetRepairChip)$$'
bench-smoke:
	go test -run xxx -bench $(KERNEL_BENCH) -benchtime 1x $(KERNEL_PKGS)
	go test -run xxx -bench $(RECOVERY_BENCH) -benchtime 1x .

# CPU + allocation profiles of the engine write benchmark (the zero-alloc
# write pipeline); inspect with `go tool pprof profiles/write_{cpu,mem}.pprof`.
# PROFILE_BENCH=FleetRepairChip profiles the fleet's chip repair instead,
# PROFILE_BENCH=ChipkillRebuild the boot scrub's chip rebuild.
PROFILE_BENCH ?= EngineWrite
profile:
	mkdir -p profiles
	go test -run xxx -bench $(PROFILE_BENCH) -benchmem -o profiles/chipkillpm.test \
		-cpuprofile profiles/write_cpu.pprof -memprofile profiles/write_mem.pprof .

# Fault-injection campaigns (internal/inject). `campaign` is the
# acceptance suite; `soak` adds the deep campaigns and runs the soak-tagged
# tests.
campaign:
	go run ./cmd/faultcampaign -suite standard

# Multi-rank fleet campaigns: rank kills (serial and under concurrent
# load), chip repair with the measured per-block cost of each path (VLEW
# copy from a replica vs the parallel RS erasure rebuild), replica
# divergence healing, replica death mid-repair, and the two-rank
# double-fault.
fleet-campaign:
	go run ./cmd/faultcampaign -suite fleet

soak:
	go test -tags soak -count=1 -run TestSoakSuite -v ./internal/inject/
	go run ./cmd/faultcampaign -suite soak

# Short coverage-guided fuzz pass over the decoders (the BCH decoder
# also differentially, against its textbook reference), the RS erasure
# solver and the packed-word corrector; the checked-in seed corpora under
# internal/{bch,rs}/testdata/fuzz also run in plain `go test`.
FUZZTIME ?= 10s
fuzz:
	go test ./internal/bch/ -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME)
	go test ./internal/bch/ -fuzz='^FuzzDecodeMatchesReference$$' -fuzztime=$(FUZZTIME)
	go test ./internal/rs/ -fuzz=FuzzDecode -fuzztime=$(FUZZTIME)
	go test ./internal/rs/ -fuzz=FuzzErasureSolver -fuzztime=$(FUZZTIME)
	go test ./internal/rs/ -fuzz=FuzzCorrectWord -fuzztime=$(FUZZTIME)
	go test ./internal/guard/ -fuzz=FuzzJournalDecode -fuzztime=$(FUZZTIME)

check:
	sh scripts/check.sh

check-quick:
	sh scripts/check.sh -quick

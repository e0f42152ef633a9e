#!/bin/sh
# campaigndiff.sh — same answers as a base commit: runs fault-campaign
# suites on <base-ref> and on the working tree and fails on any report
# difference outside the fields that measure time.
#
# Usage: scripts/campaigndiff.sh <base-ref> [suite...]
#   (default suites: standard smoke escape guard fleet)
#
# Exports <base-ref> into a temporary directory (git archive, as
# benchpair.sh does), builds cmd/faultcampaign on both trees, runs
# `faultcampaign -suite S -json FILE` on each and compares the two JSON
# reports with jq after deleting, everywhere, the wall-clock fields
# (elapsed_ms, repair_*_ns_per_block, repair_speedup). The only other
# fields dropped are the load counters of the two campaigns whose demand
# workers run concurrently with the supervisor; they differ between two
# runs of one tree, and are listed in $load below. Prints a unified diff
# of the normalised reports and exits non-zero on any difference. A
# suite that fails on both sides with the same report is not a
# difference; its FAIL lines show in the run output.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
	echo "usage: $0 <base-ref> [suite...]" >&2
	exit 2
fi
base=$1
shift
[ $# -gt 0 ] || set -- standard smoke escape guard fleet

command -v jq >/dev/null || {
	echo "campaigndiff: jq not found" >&2
	exit 2
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/fc-base" ./cmd/faultcampaign)
go build -o "$tmp/fc-head" ./cmd/faultcampaign

# Load counters (paths into one campaign report) of the campaigns whose
# demand workers race the supervisor: these fields, and only these,
# differed across four runs of one tree.
load='{
  "guard-chipkill-load": [["reads"], ["writes"], ["guard", "ops_during_migration"], ["guard", "worker_ops"]],
  "fleet-rank-kill-load": [["fleet", "contained_dues"], ["fleet", "failover_reads"],
    ["fleet", "failover_writes"], ["fleet", "ops_after_kill"], ["fleet", "read_repairs"],
    ["fleet", "rejected_writes"], ["fleet", "worker_ops"]]
}'

status=0
for suite in "$@"; do
	for side in base head; do
		# A failing suite exits non-zero; its report is still compared.
		"$tmp/fc-$side" -suite "$suite" -json "$tmp/$side.json" >"$tmp/$side.out" 2>&1 || true
		if [ ! -s "$tmp/$side.json" ]; then
			echo "campaigndiff: $side run of suite $suite wrote no report:" >&2
			tail -n 5 "$tmp/$side.out" >&2
			exit 1
		fi
		jq -S --argjson load "$load" '
			walk(if type == "object" then
				del(.elapsed_ms, .repair_replica_ns_per_block, .repair_erasure_ns_per_block, .repair_speedup)
			else . end)
			| .campaigns |= map(. as $c | reduce ($load[$c.name] // [])[] as $p ($c; delpaths([$p])))
		' "$tmp/$side.json" >"$tmp/$side.norm"
		rm "$tmp/$side.json"
	done
	if diff -u "$tmp/base.norm" "$tmp/head.norm" >"$tmp/diff"; then
		echo "$suite: same"
	else
		echo "$suite: DIFFERENT"
		cat "$tmp/diff"
		status=1
	fi
done
exit $status

#!/bin/sh
# benchpair.sh — paired base-vs-head runs of one benchmark workload: the
# procedure bench/README.md asks of any change that claims a gain
# (choosing-metrics guide, section 8).
#
# Usage: scripts/benchpair.sh <base-ref> <workload> [pairs=10]
#
# Exports <base-ref> into a temporary directory (git archive: nothing is
# registered in .git, so an interrupted run leaves nothing to prune), then
# for k = 1..pairs runs `go run ./bench -workload <workload> -seed k` on
# base and on the working tree, swapping which side goes first each pair.
# Only the JSON object on the last line of each run is read. Prints, per
# metric: each side's median and quartiles, head/base of the medians, the
# pairs head won (ties count for neither side) and whether the guide's
# rule for claiming a gain holds — at least nine tenths of the pairs won
# and the medians further apart than base's own interquartile distance.
# Directions (higher/lower is better) come from BENCHMARK.json.
#
# BENCH_FLAGS adds flags to every run, e.g. BENCH_FLAGS='-trace 1' for the
# per-layer metrics. A run that exits non-zero (failed operations, failed
# verification) aborts the comparison.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 <base-ref> <workload> [pairs=10]" >&2
	exit 2
fi
base=$1
workload=$2
pairs=${3:-10}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"

# run <side> <dir> <pair>: one benchmark run; appends "pair side metric
# value" lines to $tmp/samples.
run() {
	# shellcheck disable=SC2086 # BENCH_FLAGS is a flag list
	if ! (cd "$2" && go run ./bench -workload "$workload" -seed "$3" ${BENCH_FLAGS:-}) >"$tmp/out" 2>"$tmp/err"; then
		echo "benchpair: $1 run failed (pair $3):" >&2
		tail -n 5 "$tmp/err" "$tmp/out" >&2
		exit 1
	fi
	tail -n 1 "$tmp/out" |
		grep -o '"[A-Za-z0-9_.]*":{"value":[-+0-9.eE]*' |
		sed -e 's/"\([^"]*\)":{"value":/\1 /' -e "s/^/$3 $1 /" >>"$tmp/samples"
}

k=1
while [ "$k" -le "$pairs" ]; do
	if [ $((k % 2)) -eq 1 ]; then
		run base "$tmp/base" "$k"
		run head . "$k"
	else
		run head . "$k"
		run base "$tmp/base" "$k"
	fi
	echo "pair $k/$pairs done" >&2
	k=$((k + 1))
done

awk -F'"' '/"name":/ { n = $4 } /"better":/ { print "dir", n, $4 }' BENCHMARK.json >"$tmp/dirs"

# A -seed in BENCH_FLAGS comes after run's own and overrides it in every run.
seeds="seeds 1..$pairs"
flagseed=$(printf '%s\n' "${BENCH_FLAGS:-}" | sed -n 's/.*-\{1,2\}seed[= ]\{1,\}\([^ ]*\).*/\1/p')
[ -n "$flagseed" ] && seeds="seed $flagseed (from BENCH_FLAGS)"
echo "$workload: $pairs pairs, base=$base, head=working tree, $seeds"
awk '
function quantile(side, m, p,    n, i, j, t, v, pos, lo) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((i, side, m) in val) v[++n] = val[i, side, m]
	for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j+1] = v[j]; v[j+1] = t }
	pos = (n - 1) * p + 1; lo = int(pos)
	return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo+1] - v[lo])
}
$1 == "dir" { better[$2] = $3; next }
{ val[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 }; if ($1 > pairs) pairs = $1 }
END {
	printf "%-34s %14s %27s %14s %27s %9s %6s  %s\n", "metric", "base median", "[q1, q3]", "head median", "[q1, q3]", "head/base", "wins", "gain claimable"
	for (k = 1; k <= nm; k++) {
		m = order[k]; wins = 0
		for (i = 1; i <= pairs; i++) {
			b = val[i, "base", m]; h = val[i, "head", m]
			if (better[m] == "higher" ? h > b : h < b) wins++
		}
		bm = quantile("base", m, 0.5); b1 = quantile("base", m, 0.25); b3 = quantile("base", m, 0.75)
		hm = quantile("head", m, 0.5); h1 = quantile("head", m, 0.25); h3 = quantile("head", m, 0.75)
		gap = better[m] == "higher" ? hm - bm : bm - hm
		claim = (m in better) ? ((wins >= 0.9 * pairs && gap > b3 - b1) ? "yes" : "no") : "n/a (no direction in BENCHMARK.json)"
		printf "%-34s %14.6g %27s %14.6g %27s %9s %3d/%-2d  %s\n", m, bm, sprintf("[%.6g, %.6g]", b1, b3), hm, sprintf("[%.6g, %.6g]", h1, h3), (bm != 0 ? sprintf("%.3f", hm / bm) : "-"), wins, pairs, claim
	}
}' "$tmp/dirs" "$tmp/samples"

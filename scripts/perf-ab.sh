#!/bin/sh
# perf-ab.sh — paired A/B run of cmd/pyro-perf: BASE against the working tree.
#
#   scripts/perf-ab.sh BASE [WORKLOAD] [PAIRS] [SECONDS] [TRACE] [OUT]
#
# Builds pyro-perf twice — from an export of BASE's committed files and from
# the working tree — then runs PAIRS pairs of (old, new), alternating which
# side goes first so slow stretches of the host land on both. Pair i uses
# seed i on both sides: the exact counters compare at equal seeds, and the
# timing medians are taken over PAIRS different datasets. Results land in
# $PERF_AB_OUT/{old,new} (default .bench_build/perf-ab, wiped first); the
# verdict table is pyro-perf -compare. With OUT set (a file name, e.g.
# BENCH_16.json) the same runs are also condensed into the PR's committed
# trajectory record: per workload and end-to-end metric both sides' median
# and quartiles, the pairs the change won, and the verdict
# (cmd/pyro-trajectory).
# This is the procedure cmd/pyro-perf/README.md prescribes for a change that
# claims a gain (`make perf-ab` is the usual way in).
set -eu

base=${1:?usage: perf-ab.sh BASE [WORKLOAD] [PAIRS] [SECONDS] [TRACE] [OUT]}
workload=${2:-all}
pairs=${3:-10}
seconds=${4:-20}
trace=${5:-0}
out=${6:-}

root=$(git rev-parse --show-toplevel)
work=${PERF_AB_OUT:-$root/.bench_build/perf-ab}
rm -rf "$work"
mkdir -p "$work/base-src" "$work/old" "$work/new"

git -C "$root" archive "$base" | tar -x -C "$work/base-src"
(cd "$work/base-src" && go build -o "$work/pyro-perf-old" ./cmd/pyro-perf)
(cd "$root" && go build -o "$work/pyro-perf-new" ./cmd/pyro-perf)

run() { # side seed
	if ! "$work/pyro-perf-$1" -workload "$workload" -seed "$2" -seconds "$seconds" \
		-trace "$trace" -out "$work/$1" >"$work/$1/last.log" 2>&1; then
		cat "$work/$1/last.log"
		echo "perf-ab: $1 side failed at seed $2" >&2
		exit 1
	fi
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run old "$i"
		run new "$i"
	else
		run new "$i"
		run old "$i"
	fi
	echo "perf-ab: pair $i/$pairs done" >&2
	i=$((i + 1))
done

cd "$root"
rc=0
"$work/pyro-perf-new" -compare "$work/old" "$work/new" >"$work/compare.txt" || rc=$?
cat "$work/compare.txt"
if [ -n "$out" ] && [ "$rc" -le 1 ]; then
	go run ./cmd/pyro-trajectory -verdicts "$work/compare.txt" \
		-base "$(git rev-parse "$base")" -out "$out" "$work/old" "$work/new"
	echo "perf-ab: wrote $out" >&2
fi
exit "$rc"

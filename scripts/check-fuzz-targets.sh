#!/bin/sh
# Fails when the fuzz-smoke list and the fuzz targets in the tree disagree.
#
#   scripts/check-fuzz-targets.sh ./internal/keys:FuzzCodecAgreesWithComparator ...
#
# Each argument is one entry of make's FUZZ_TARGETS, <package dir>:<name>.
# Every `func Fuzz…` in a test file of the module's packages (as `go list`
# names them) must be listed, so that fuzz-smoke runs a new target; and every
# listed target must still be defined, since `go test -fuzz` with a pattern
# that matches nothing passes without fuzzing anything.
set -eu

GO=${GO:-go}
module=$("$GO" list -m)

found=$("$GO" list -f '{{$ip := .ImportPath}}{{$dir := .Dir}}{{range .TestGoFiles}}{{$ip}} {{$dir}}/{{.}}
{{end}}{{range .XTestGoFiles}}{{$ip}} {{$dir}}/{{.}}
{{end}}' ./... | while read -r ip file; do
	pkg=./${ip#"$module"/}
	if [ "$ip" = "$module" ]; then
		pkg=.
	fi
	sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$file" | sed "s|^|$pkg:|"
done | sort -u)
listed=$(printf '%s\n' "$@" | sort -u)

status=0
for t in $found; do
	if ! printf '%s\n' "$listed" | grep -qxF -- "$t"; then
		echo "check-fuzz-targets: $t is not in FUZZ_TARGETS" >&2
		status=1
	fi
done
for t in $listed; do
	if ! printf '%s\n' "$found" | grep -qxF -- "$t"; then
		echo "check-fuzz-targets: FUZZ_TARGETS lists $t, which no test file defines" >&2
		status=1
	fi
done
exit $status

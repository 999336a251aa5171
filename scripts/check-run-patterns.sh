#!/bin/sh
# Fails when an alternative of a `go test -run` pattern matches no test.
#
#   scripts/check-run-patterns.sh 'Govern|Gate|Chunk' ./...
#
# A make target that runs a selection of tests by name (race-serve, chaos)
# passes silently when a rename or a deletion leaves one of its `|`
# alternatives matching nothing; this check names each such alternative.
# The tests, examples and fuzz targets of the packages are listed once
# (`go test -list`), and every alternative must match at least one of them.
set -eu

GO=${GO:-go}
pattern=$1
shift
pkgs=$*

names=$("$GO" test -list . "$@" | grep -E '^(Test|Example|Fuzz)' || true)

status=0
old_ifs=$IFS
IFS='|'
for token in $pattern; do
	if ! printf '%s\n' "$names" | grep -Eq -- "$token"; then
		echo "check-run-patterns: '$token' of -run '$pattern' matches no test in $pkgs" >&2
		status=1
	fi
done
IFS=$old_ifs
exit $status

#!/bin/sh
# loc.sh — Go source lines per package, non-test and test files apart, and in
# total (`go list` names each package's files, `wc` counts them).
#
#   scripts/loc.sh [BASE]
#
# With BASE (any git revision) it also prints each package's change against
# BASE's committed files, which it exports with `git archive` as perf-ab.sh
# does; a package present on one side only counts as zero on the other.
set -eu

# count DIR: one "package non-test test" line per package of the module at DIR.
count() {
	(cd "$1" && ${GO:-go} list -f '{{.ImportPath}}|{{.Dir}}|{{join .GoFiles " "}}|{{join .TestGoFiles " "}} {{join .XTestGoFiles " "}}' ./...) |
		while IFS='|' read -r pkg dir src tst; do
			printf '%s %d %d\n' "$pkg" \
				"$(cd "$dir" && cat $src /dev/null | wc -l)" "$(cd "$dir" && cat $tst /dev/null | wc -l)"
		done
}

root=$(git rev-parse --show-toplevel)
if [ $# -eq 0 ]; then
	printf '%-32s %8s %8s\n' package non-test test
	count "$root" | awk '{ printf "%-32s %8d %8d\n", $1, $2, $3; s += $2; t += $3 }
		END { printf "%-32s %8d %8d\n", "total", s, t }'
	exit 0
fi

work=$root/.bench_build/loc
rm -rf "$work"
mkdir -p "$work/base-src"
git -C "$root" archive "$1" | tar -x -C "$work/base-src"
count "$work/base-src" >"$work/base.txt"
count "$root" >"$work/head.txt"
printf '%-32s %8s %8s %11s %9s\n' package non-test test +/-non-test +/-test
awk 'FNR == NR { base[$1] = $2 " " $3; next }
	{ head[$1] = $2 " " $3 }
	END {
		for (p in base) if (!(p in head)) head[p] = "0 0"
		for (p in head) {
			split(head[p], h, " ")
			b[1] = b[2] = 0
			if (p in base) split(base[p], b, " ")
			printf "%-32s %8d %8d %+11d %+9d\n", p, h[1], h[2], h[1] - b[1], h[2] - b[2]
			s += h[1]; t += h[2]; ds += h[1] - b[1]; dt += h[2] - b[2]
		}
		printf "~total %d %d %d %d\n", s, t, ds, dt
	}' "$work/base.txt" "$work/head.txt" | sort |
	awk '$1 == "~total" { printf "%-32s %8d %8d %+11d %+9d\n", "total", $2, $3, $4, $5; next } { print }'
rm -rf "$work"

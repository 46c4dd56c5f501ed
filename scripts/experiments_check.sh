#!/usr/bin/env bash
# experiments_check.sh diffs EXPERIMENTS.md against a fresh default mp5bench
# run and exits non-zero, naming the first table that differs. The doc holds
# the run's stdout in blocks, each between a `<!-- mp5bench:NAME -->` line
# and a `<!-- /mp5bench -->` line; in order, block i must equal the run's
# i-th piece byte for byte (the scale line, then one piece per table, each
# starting at its bold title line).
# With -w it first rewrites every block from the run, then checks.
# Run from the repository root: bash scripts/experiments_check.sh [-w]
set -euo pipefail
doc=EXPERIMENTS.md
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/mp5bench" ./cmd/mp5bench
"$tmp/mp5bench" >"$tmp/run"
awk -v dir="$tmp" 'NR == 1 || /^\*\*/ { n++ } { print > (dir "/run" n) }' "$tmp/run"
if [[ ${1:-} == -w ]]; then
	awk -v dir="$tmp" '
		/^<!-- \/mp5bench -->$/ { skip = 0 }
		!skip { print }
		/^<!-- mp5bench:[a-z0-9]+ -->$/ {
			f = dir "/run" ++n
			while ((getline line < f) > 0) print line
			skip = 1
		}' "$doc" >"$tmp/doc"
	cp "$tmp/doc" "$doc"
fi
: >"$tmp/names"
awk -v dir="$tmp" '
	/^<!-- \/mp5bench -->$/ { name = ""; next }
	/^<!-- mp5bench:[a-z0-9]+ -->$/ {
		name = substr($0, 15, length($0) - 18)
		print name > (dir "/names")
		printf "" > (dir "/block" ++n)
		next
	}
	name != "" { print > (dir "/block" n) }' "$doc"
i=0
while read -r name; do
	i=$((i + 1))
	if ! cmp -s "$tmp/run$i" "$tmp/block$i"; then
		echo "experiments-check: table $name in $doc differs from mp5bench's output:"
		diff -u --label "mp5bench" --label "$doc ($name)" "$tmp/run$i" "$tmp/block$i" || true
		exit 1
	fi
done <"$tmp/names"
if [[ -e $tmp/run$((i + 1)) ]]; then
	echo "experiments-check: mp5bench printed more tables than the $i blocks in $doc:"
	cat "$tmp/run$((i + 1))"
	exit 1
fi
echo "experiments-check: OK ($i blocks)"

#!/usr/bin/env bash
# doc_refs.sh checks the backticked references in DESIGN.md, README.md and
# EXPERIMENTS.md against the tree, and exits non-zero listing every stale one:
#   - a span that is a test name (`TestX`, `BenchmarkX`, `FuzzX`, `ExampleX`)
#     must be listed by `go test -list` in the root module or in bench/;
#   - a span that starts with a top-level directory (`internal/...`,
#     `cmd/...`, `bench/...`, `scripts/...`, `examples/...`) must name a file
#     or directory that exists (a `:line` suffix is ignored), or read as
#     `pkg/path.Symbol`: a package directory plus an identifier it declares;
#   - a span naming a root-level file (`mp5.go`, `EXPERIMENTS.md`: one path
#     component ending in .go, .md, .txt, .json, .jsonl, .sh, .mod or .sum)
#     or directory (`name/`) must exist at the repository root.
# Spans holding spaces (commands) or braces are not read as references.
# Run from the repository root: bash scripts/doc_refs.sh
set -euo pipefail
docs=(DESIGN.md README.md EXPERIMENTS.md)
tests=$( { go test -list . ./... && (cd bench && go test -list . ./...); } |
	grep -E '^(Test|Benchmark|Fuzz|Example)' | sort -u)
bad=0
stale() {
	echo "$1: stale reference \`$2\`: $3"
	bad=1
}
for doc in "${docs[@]}"; do
	while IFS= read -r hit; do
		line=${hit%%:*}
		ref=${hit#*:\`}
		ref=${ref%\`}
		case $ref in *[[:space:]{]* | "") continue ;; esac
		if [[ $ref =~ ^(Test|Benchmark|Fuzz|Example)[A-Z0-9_][A-Za-z0-9_]*$ ]]; then
			grep -qxF "$ref" <<<"$tests" || stale "$doc:$line" "$ref" "no such test in go test -list"
			continue
		fi
		if [[ $ref =~ ^[A-Za-z0-9_.-]+(\.(go|md|txt|json|jsonl|sh|mod|sum)|/)$ ]]; then
			[[ -e $ref ]] || stale "$doc:$line" "$ref" "no such file or directory at the root"
			continue
		fi
		[[ $ref =~ ^(internal|cmd|bench|scripts|examples)(/|$) ]] || continue
		path=${ref%%:*}
		[[ -e $path ]] && continue
		dir=${path%.*} sym=${path##*.}
		if [[ $dir != "$path" && -d $dir && $sym =~ ^[A-Z][A-Za-z0-9_]*$ ]]; then
			grep -Eq "^(func (\([^)]*\) )?|type |var |const |	)$sym\b" "$dir"/*.go ||
				stale "$doc:$line" "$ref" "$dir declares no $sym"
			continue
		fi
		stale "$doc:$line" "$ref" "no such path"
	done < <(grep -no '`[^`]*`' "$doc")
done
exit $bad

#!/usr/bin/env bash
# gatecheck: the Makefile's *check gates select tests with hand-written
# `-run '…'` expressions. Every alternation term of every one of them
# must match at least one name `go test -list` prints for that gate's
# packages, so a renamed or deleted test cannot silently leave its gate.
# A subtest term (`TestTop/sub`) is run instead, since -list prints only
# top-level names: it must start a subtest of that name.
set -euo pipefail
cd "$(dirname "$0")/.."
bad=0
while read -r line; do
	run=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	case $run in '^'*) continue ;; esac # `-run '^$'`: benchmarks only
	pkgs=$(sed -E "s/.*-run '[^']*'//" <<<"$line" | tr '[:space:]' '\n' | grep -E '^\.(/|$)' | tr '\n' ' ')
	# shellcheck disable=SC2086
	names=$(${GO:-go} test -list '.*' $pkgs | grep -E '^(Test|Benchmark|Fuzz|Example)')
	for term in ${run//|/ }; do
		if [[ $term == */* ]]; then
			# shellcheck disable=SC2086
			out=$(${GO:-go} test -count=1 -v -run "$term" $pkgs 2>&1 || true)
			grep -qE -- "^ *=== RUN +$term" <<<"$out" && continue
		elif grep -qE -- "$term" <<<"$names"; then
			continue
		fi
		echo "gatecheck: -run term '$term' matches no test in: $pkgs" >&2
		bad=1
	done
done < <(sed -e ':a' -e '/\\$/{N;s/\\\n//;ba' -e '}' Makefile | grep -- $'^\t.*-run \'')
exit $bad

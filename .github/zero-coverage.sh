#!/usr/bin/env bash
# Lists the production functions in internal/ that no test executes, and
# fails if one is missing from .github/zero-coverage.txt, so a newly dead
# or untested path shows up in review. It also fails, before running any
# test, if the list names a function its file no longer declares.
# internal/sql's AST marker methods (empty interface-tagging methods) are
# filtered out.
#
#   .github/zero-coverage.sh          check against the committed list
#   .github/zero-coverage.sh update   rewrite the committed list
set -euo pipefail
cd "$(dirname "$0")/.."
list=.github/zero-coverage.txt
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT

if [ "${1:-}" != update ]; then
	gone=$(while read -r file fn; do
		grep -Eqs "^func (\([^)]*\) )?$fn[[(]" "${file#repro/}" || echo "$file $fn"
	done < "$list")
	if [ -n "$gone" ]; then
		echo "no longer declared in the source; remove from $list:" >&2
		echo "$gone" >&2
		exit 1
	fi
fi

go test -coverpkg=./internal/... -coverprofile="$profile" ./... > /dev/null
current=$(go tool cover -func="$profile" | awk '
	$3 == "0.0%" {
		sub(/:[0-9]+:$/, "", $1)
		if ($1 ~ /^repro\/internal\/sql\// && $2 ~ /^(astNode|exprNode|bodyNode|stmtNode|tableExpr)$/) next
		print $1, $2
	}' | LC_ALL=C sort -u)

if [ "${1:-}" = update ]; then
	printf '%s\n' "$current" > "$list"
	exit 0
fi
stale=$(LC_ALL=C comm -13 <(printf '%s\n' "$current") "$list")
if [ -n "$stale" ]; then
	echo "now reached by a test; remove from $list:"
	echo "$stale"
fi
new=$(LC_ALL=C comm -23 <(printf '%s\n' "$current") "$list")
if [ -n "$new" ]; then
	echo "functions no test reaches, not in $list:" >&2
	echo "$new" >&2
	exit 1
fi

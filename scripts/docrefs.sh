#!/usr/bin/env bash
# docrefs: every DESIGN.md section a Go file cites — "DESIGN.md §10", or
# a list such as "DESIGN.md §10, §12" — must be a "## N." heading of
# DESIGN.md, so renumbering or deleting a section cannot leave a comment
# pointing nowhere. Prints each dangling citation and exits 1 if any.
set -euo pipefail
cd "$(dirname "$0")/.."

refs=$(grep -rnoE --include='*.go' 'DESIGN\.md §[0-9]+((, | and | or )§[0-9]+)*' . || true)
if [ -z "$refs" ]; then
	echo "docrefs: no DESIGN.md citation found" >&2
	exit 1
fi
status=0 checked=0
while IFS= read -r ref; do
	loc=${ref%%:DESIGN.md*} # file:line
	for sec in $(grep -oE '[0-9]+' <<<"${ref#"$loc":}"); do
		checked=$((checked + 1))
		if ! grep -qE "^## $sec\. " DESIGN.md; then
			echo "$loc: cites DESIGN.md §$sec, which has no '## $sec.' heading"
			status=1
		fi
	done
done <<<"$refs"
echo "docrefs: $checked citations checked"
exit $status

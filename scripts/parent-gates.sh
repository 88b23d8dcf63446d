#!/usr/bin/env bash
# parent-gates.sh — the parent-equal gate: a change that claims to keep
# behaviour must print byte-for-byte what its parent commit prints.
#
# Builds cmd/benchtables from PARENT (default HEAD^, exported into a throwaway
# directory) and from the working tree, runs the seven determinism gates of
# .github/workflows/ci.yml on both with the CI seeds, and cmp's them pairwise:
# parent vs change at -workers 1, and the change at -workers 1 vs 8.
#
# A gate a change is MEANT to move is named in scripts/parent-gates.allow,
# one gate name per line with a comment saying why; its parent diff is shown
# and tolerated, everything else — and every workers diff — fails the script.
#
#   scripts/parent-gates.sh [PARENT]
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
parent=${1:-HEAD^}
allow=scripts/parent-gates.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
git archive "$parent" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/bt-parent" ./cmd/benchtables)
go build -o "$tmp/bt-head" ./cmd/benchtables

# name, then the gate's arguments (the CI seeds).
gates=(
	"suite    -quick -seed 9"
	"scale    -quick -run E-scale -seed 3"
	"hotspot  -quick -run E-hotspot -seed 5"
	"faceoff  -quick -run E-faceoff -seed 7"
	"planet   -quick -run E-planet -seed 11"
	"nines    -quick -run E-nines -seed 13"
	"chaos    -quick -run E-chaos -seed 17"
)

allowed() { [ -f "$allow" ] && grep -qE "^$1([[:space:]]|$)" "$allow"; }

fail=0
for g in "${gates[@]}"; do
	read -r name args <<<"$g"
	# shellcheck disable=SC2086
	"$tmp/bt-parent" $args -workers 1 >"$tmp/$name.parent"
	# shellcheck disable=SC2086
	"$tmp/bt-head" $args -workers 1 >"$tmp/$name.w1"
	# shellcheck disable=SC2086
	"$tmp/bt-head" $args -workers 8 >"$tmp/$name.w8"
	if ! cmp -s "$tmp/$name.w1" "$tmp/$name.w8"; then
		echo "FAIL  $name: -workers 1 and 8 differ"
		diff "$tmp/$name.w1" "$tmp/$name.w8" | head -20 || true
		fail=1
	elif cmp -s "$tmp/$name.parent" "$tmp/$name.w1"; then
		echo "ok    $name: equal to $parent, -workers 1 == 8"
	elif allowed "$name"; then
		echo "moved $name: differs from $parent (allow-listed), -workers 1 == 8"
		diff "$tmp/$name.parent" "$tmp/$name.w1" | head -40 || true
	else
		echo "FAIL  $name: differs from $parent"
		diff "$tmp/$name.parent" "$tmp/$name.w1" | head -40 || true
		fail=1
	fi
done
exit $fail

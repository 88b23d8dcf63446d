#!/usr/bin/env bash
# bench-pairs.sh — the paired end-to-end comparison every perf change reports:
# N alternated runs of one BENCHMARK.json workload on PARENT and on the
# working tree, each through its own tree's bench/run.sh (so each side builds
# and runs its own harness), then per metric the medians, the quartiles and
# how many of the N pairs the change won.
#
# PARENT is exported with `git archive` into a throwaway directory, as
# scripts/parent-gates.sh does. Pair i runs both sides with --seed i; odd
# pairs run the parent first, even pairs the change, so drift of the box over
# the session falls on both. Set TMPDIR to keep the throwaway off /tmp.
#
#   scripts/bench-pairs.sh PARENT N WORKLOAD [extra bench/run.sh flags...]
#   scripts/bench-pairs.sh HEAD^ 10 locate-direct
#   scripts/bench-pairs.sh HEAD^ 1 locate-direct -world 19970611
#
# A pair at the default 24 s takes about a minute. Needs python3 for the
# summary (the raw result lines stay in $TMPDIR until the script exits; pass
# KEEP=path to copy them out).
set -euo pipefail

if [ $# -lt 3 ]; then
	sed -n '2,20p' "$0" >&2
	exit 2
fi
cd "$(git rev-parse --show-toplevel)"
parent=$1 pairs=$2 workload=$3
shift 3
seconds=${SECONDS_PER_RUN:-24}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
git archive "$parent" | tar -x -C "$tmp/parent"

# run TREE SEED OUT: the harness prints its result as the last line of stdout.
run() {
	bash "$1/bench/run.sh" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 "${@:4}" 2>/dev/null | tail -n 1 >>"$3"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run "$tmp/parent" "$i" "$tmp/parent.jsonl" "$@"
		run "$PWD" "$i" "$tmp/change.jsonl" "$@"
	else
		run "$PWD" "$i" "$tmp/change.jsonl" "$@"
		run "$tmp/parent" "$i" "$tmp/parent.jsonl" "$@"
	fi
	echo "pair $i/$pairs done" >&2
done
if [ -n "${KEEP:-}" ]; then
	mkdir -p "$KEEP"
	cp "$tmp/parent.jsonl" "$tmp/change.jsonl" "$KEEP/"
fi

python3 - "$tmp/parent.jsonl" "$tmp/change.jsonl" "$parent" "$workload" <<'EOF'
import json, statistics, sys

def load(path):
    return [json.loads(line) for line in open(path) if line.strip()]

parent, change = load(sys.argv[1]), load(sys.argv[2])
lower = {"setup_s", "locate_p50_us", "allocs_per_op", "alloc_bytes_per_op",
         "msgs_per_op", "hops_per_locate", "stretch", "heap_mb"}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]

print(f"{sys.argv[4]}: {len(change)} pairs, parent {sys.argv[3]} vs working tree")
print(f"failed ops: parent {sum(r['failed'] for r in parent)}, change {sum(r['failed'] for r in change)}")
print(f"{'metric':<20}{'parent q1 / median / q3':>40}{'change q1 / median / q3':>40}{'median':>9}{'wins':>7}")
for name in parent[0]["metrics"]:
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    better = (lambda a, b: a < b) if name in lower else (lambda a, b: a > b)
    wins = sum(better(cv, pv) for pv, cv in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    delta = (cq[1] / pq[1] - 1) * 100 if pq[1] else 0.0
    fmt = lambda q: " / ".join(f"{v:.5g}" for v in q)
    print(f"{name:<20}{fmt(pq):>40}{fmt(cq):>40}{delta:>+8.1f}%{wins:>4}/{len(c)}")
EOF

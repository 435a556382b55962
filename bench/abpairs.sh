#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload.
#
#   bench/abpairs.sh <parent-ref> <workload> [pairs=10] [seconds=15]
#
# The runner drifts ±20 % between runs of the same binary, so a time-based
# claim is only shown by pairs: pair i runs the parent and the change back to
# back on seed i, and the side that runs first alternates. <parent-ref> is a
# git ref (checked out with `git worktree add` into a temporary directory and
# removed afterwards) or a directory that already holds the parent's tree.
# Each side is `bash benchmark/run.sh --workload W --seed i --seconds S
# --trace 0` from its own tree, which builds into that tree's .bench_build.
# Every run's last-line JSON is kept in $ABPAIRS_OUT (default: a temporary
# directory, printed at the end) and the summary reports, per metric: each
# side's median and quartiles, the change of the medians, the parent's
# interquartile spread relative to its median, and in how many pairs the change won.
# The same summary is written as JSON to $ABPAIRS_OUT/summary.json, with each
# side's git head (and whether its tree differs from it) and the GOMAXPROCS
# the runs had.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,5p' "$0" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=${3:-10} seconds=${4:-15}
root=$(cd "$(dirname "$0")/.." && pwd)
out=${ABPAIRS_OUT:-$(mktemp -d)}
mkdir -p "$out"

if [ -f "$ref/benchmark/run.sh" ]; then
	parent=$(cd "$ref" && pwd)
else
	parent=$(mktemp -d)/parent
	git -C "$root" worktree add --detach "$parent" "$ref" >/dev/null
	trap 'git -C "$root" worktree remove --force "$parent"' EXIT
fi

# git_head <tree>: the tree's git head and whether its files differ from it, as
# JSON; null for a tree outside git.
git_head() {
	local rev
	if rev=$(git -C "$1" rev-parse HEAD 2>/dev/null); then
		if [ -n "$(git -C "$1" status --porcelain 2>/dev/null)" ]; then
			echo "{\"commit\": \"$rev\", \"dirty\": true}"
		else
			echo "{\"commit\": \"$rev\", \"dirty\": false}"
		fi
	else
		echo null
	fi
}
heads="{\"parent\": $(git_head "$parent"), \"change\": $(git_head "$root")}"
gomaxprocs=${GOMAXPROCS:-$(nproc)}

# run <side> <tree> <seed>: one benchmark process; its last line is the JSON.
run() {
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) |
		tail -n 1 >"$out/$1_$3.json"
	echo "  $1 seed $3: $(cat "$out/$1_$3.json")"
}

for i in $(seq 1 "$pairs"); do
	echo "pair $i/$pairs"
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$parent" "$i"
	fi
done

python3 - "$out" "$pairs" "$root/BENCHMARK.json" "$workload" "$heads" "$gomaxprocs" <<'EOF'
import json, statistics, sys
out, pairs, contract, workload = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3])), sys.argv[4]
heads, gomaxprocs = json.loads(sys.argv[5]), int(sys.argv[6])
better = {m["name"]: m["better"] for m in contract["end_to_end"]}
runs = {side: [json.load(open(f"{out}/{side}_{i}.json")) for i in range(1, pairs + 1)]
        for side in ("parent", "change")}
for side, rs in runs.items():
    bad = [i + 1 for i, r in enumerate(rs) if r["failed"] or not r["correct"]]
    print(f"{side}: {sum(r['attempted'] for r in rs)} attempted, "
          f"{sum(r['failed'] for r in rs)} failed" + (f", incorrect seeds {bad}" if bad else ""))
def q(xs):
    lo, med, hi = statistics.quantiles(xs, n=4, method="inclusive")
    return lo, med, hi
print(f"{'metric':<22}{'parent med [q1, q3]':>38}{'change med [q1, q3]':>38}{'change':>9}{'p.iqr':>8}{'wins':>7}")
summary = {"workload": workload, "pairs": pairs, "heads": heads, "gomaxprocs": gomaxprocs, "metrics": {}}
for name in runs["parent"][0]["metrics"]:
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    sign = 1 if better.get(name) == "higher" else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    ties = sum(1 for a, b in zip(p, c) if a == b)
    (pl, pm, ph), (cl, cm, ch) = q(p), q(c)
    frac = lambda x: x / pm if pm else None
    rel = lambda x: f"{100 * x / pm:+.1f}%" if pm else "n/a"
    print(f"{name:<22}{f'{pm:.4g} [{pl:.4g}, {ph:.4g}]':>38}{f'{cm:.4g} [{cl:.4g}, {ch:.4g}]':>38}"
          f"{rel(cm - pm):>9}{rel(ph - pl).lstrip('+'):>8}{f'{wins}/{pairs - ties}':>7}")
    summary["metrics"][name] = {
        "better": better.get(name), "parent": [pl, pm, ph], "change": [cl, cm, ch],
        "change_frac": frac(cm - pm), "parent_iqr_frac": frac(ph - pl),
        "wins": wins, "decided_pairs": pairs - ties,
    }
with open(f"{out}/summary.json", "w") as f:
    json.dump(summary, f, indent=1)
EOF
echo "runs kept in $out"

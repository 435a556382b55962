#!/usr/bin/env python3
"""The benchmark trajectory across PRs, from the committed pair summaries.

    python3 bench/trend.py [--upto N]

Reads every BENCH_pr<N>.json in the repository root in PR order. Each file holds one PR's alternating-pair summaries against its parent
(bench/abpairs.sh), and their absolute medians do not compare from one file
to the next: the runner drifts by more between days than most PRs move a
metric. What does compare is each file's change/parent ratio, measured on one
machine on one day. So for every workload and metric this prints the chained
product of those ratios, each link with the pairs its change won, and for the
deterministic counts (allocations and bytes per task) each PR's change median
as well. Those compare across files for the tp_* workloads only: an htex_*
count follows the batch sizes a run's timing produces.

PRs from FIRST (41, the first PR after the trajectory was asked to live in
the repository) to the last file, or --upto, that have no file are named as
gaps. A file that is not a pair summary is an error: the script
exits 1 and names the file and what is wrong with it.
"""

import argparse
import json
import os
import re
import signal
import sys

FIRST = 41
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
COUNTS = ("allocs_per_task", "alloc_bytes_per_task")
NAME = re.compile(r"^BENCH_pr(\d+)\.json$")


class Malformed(Exception):
    pass


def need(cond, where, what):
    if not cond:
        raise Malformed(f"{where}: {what}")


def quartiles(v, where):
    need(isinstance(v, list) and len(v) == 3
         and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v),
         where, "want [q1, median, q3] as three numbers")
    return v


def load(path):
    """Returns {workload: {metric: (parent median, change median, wins, decided)}}."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise Malformed(f"{path}: {e}")
    need(isinstance(doc, dict) and isinstance(doc.get("workloads"), dict) and doc["workloads"],
         path, 'want an object with a non-empty "workloads" object')
    out = {}
    for w, summary in doc["workloads"].items():
        where = f"{path}: {w}"
        need(isinstance(summary, dict) and isinstance(summary.get("metrics"), dict),
             where, 'want an object with a "metrics" object')
        metrics = {}
        for m, s in summary["metrics"].items():
            at = f"{where}.{m}"
            need(isinstance(s, dict), at, "want an object")
            parent = quartiles(s.get("parent"), at + ".parent")
            change = quartiles(s.get("change"), at + ".change")
            wins, decided = s.get("wins"), s.get("decided_pairs")
            need(isinstance(wins, int) and isinstance(decided, int) and 0 <= wins <= decided,
                 at, 'want integer "wins" <= "decided_pairs"')
            metrics[m] = (parent[1], change[1], wins, decided)
        out[w] = metrics
    return out


def main():
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # piped into head: stop quietly
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--upto", type=int, help="last PR to read (default: the last file)")
    args = ap.parse_args()

    files = {}
    for name in os.listdir(ROOT):
        if m := NAME.match(name):
            pr = int(m.group(1))
            if pr >= FIRST and (args.upto is None or pr <= args.upto):
                files[pr] = os.path.join(ROOT, name)
    if not files:
        print(f"no BENCH_pr<N>.json for PRs >= {FIRST} in {os.path.abspath(ROOT)}", file=sys.stderr)
        return 1
    try:
        prs = {pr: load(files[pr]) for pr in sorted(files)}
    except Malformed as e:
        print(f"malformed pair summary: {e}", file=sys.stderr)
        return 1

    last = args.upto if args.upto is not None else max(prs)
    gaps = [pr for pr in range(FIRST, last + 1) if pr not in prs]
    print(f"PRs {FIRST}-{last}: files for {' '.join(map(str, prs))}; "
          f"gaps (no file): {' '.join(map(str, gaps)) or 'none'}")

    workloads = []
    for data in prs.values():
        workloads += [w for w in data if w not in workloads]
    for w in workloads:
        print(f"\n{w}")
        metrics = []
        for data in prs.values():
            metrics += [m for m in data.get(w, {}) if m not in metrics]
        for m in metrics:
            product, links, counts = 1.0, [], []
            for pr, data in prs.items():
                if m not in data.get(w, {}):
                    links.append(f"{pr} missing")
                    continue
                parent, change, wins, decided = data[w][m]
                if parent == 0 or change == 0:
                    links.append(f"{pr} n/a")
                else:
                    product *= change / parent
                    links.append(f"{pr} ×{change / parent:.3f} ({wins}/{decided})")
                counts.append(f"{pr} {change:.4g}")
            print(f"  {m:<22}{f'×{product:.3f}':>8}   " + " · ".join(links))
            if m in COUNTS:
                print(f"  {'':<22}{'':>8}   change medians: " + " · ".join(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compares two sets of lssbench results: a parent commit and a change.

    python3 lssbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory of result files (the
<build dir>/results/*.json that run.py writes) or a list of such files
joined with commas. Only untraced runs are compared. For each workload and
each end-to-end metric the script prints both sides' median and quartiles,
the change's median as a ratio of the parent's (with the base), the share
of pairs the change won, and a verdict:

  improved    the change won at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range, in the metric's better direction;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread is wider than the bound, so a
              regression within the bound could not be seen (unless every
              change run beat every parent run);
  unchanged   otherwise.

Pairs are matched by seed when both sides ran the same seeds, else by run
order. Metrics BENCHMARK.json lists use its direction and bound; the other
untraced metrics in the results files (sim_cycles_per_s, req_per_s, the
edit_loop per-kind medians) use a bound of 0.10 and are marked with '*'.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BOUND = 0.10


def load(arg):
    """Untraced results, grouped by workload: {workload: [result, ...]}."""
    paths = []
    for part in arg.split(","):
        p = Path(part)
        if p.is_dir():
            paths += sorted(q for q in p.glob("*.json")
                            if not q.name.endswith(".spans.json"))
        else:
            paths.append(p)
    runs = {}
    for p in paths:
        r = json.loads(p.read_text())
        if r.get("trace"):
            continue
        runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pair_up(parent, change):
    """Lists of (parent value index, change value index)."""
    ps = [r["seed"] for r in parent]
    cs = [r["seed"] for r in change]
    if sorted(ps) == sorted(cs) and len(set(ps)) == len(ps):
        return [(ps.index(s), cs.index(s)) for s in ps]
    return list(zip(range(len(parent)), range(len(change))))


def verdict(p_vals, c_vals, pairs, higher_better, bound):
    p_q1, p_med, p_q3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    sign = 1 if higher_better else -1
    wins = sum(1 for i, j in pairs if sign * (c_vals[j] - p_vals[i]) > 0)
    gap = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gap > p_q3 - p_q1:
        return "improved", wins
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if (p_q3 - p_q1) > bound * abs(p_med) and not all_better:
        return "unresolved", wins
    if -gap > bound * abs(p_med):
        return "worse", wins
    return "unchanged", wins


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    header = (f"{'metric':<18} {'unit':<11} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'change/parent':>14} "
              f"{'wins':>7}  verdict")
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        print(f"\n== {workload}: {len(p_runs)} parent runs, "
              f"{len(c_runs)} change runs")
        if not p_runs or not c_runs:
            print("   (one side has no runs; nothing to compare)")
            continue
        pairs = pair_up(p_runs, c_runs)
        names = [n for n in gated] + sorted(
            n for n in p_runs[0]["metrics"] if n not in gated)
        print(header)
        for name in names:
            if not all(name in r["metrics"] for r in p_runs + c_runs):
                continue
            unit = p_runs[0]["metrics"][name]["unit"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            if name in gated:
                higher = gated[name]["better"] == "higher"
                bound, mark = gated[name]["bound"], ""
            else:
                higher = name.endswith("_per_s")
                bound, mark = DEFAULT_BOUND, "*"
            v, wins = verdict(p_vals, c_vals, pairs, higher, bound)
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            ratio = (f"{cq[1] / pq[1]:.3f}" if pq[1] else "n/a")
            print(f"{name + mark:<18} {unit:<11} "
                  f"{pq[1]:>12.5g} [{pq[0]:.4g}, {pq[2]:.4g}] "
                  f"{cq[1]:>12.5g} [{cq[0]:.4g}, {cq[2]:.4g}] "
                  f"{ratio:>6} of {pq[1]:<.4g} "
                  f"{wins:>3}/{len(pairs):<3}  {v}")


if __name__ == "__main__":
    main()

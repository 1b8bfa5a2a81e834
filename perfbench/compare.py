#!/usr/bin/env python3
"""Compare two sets of benchmark runs (JSONL files written by repeat.py).

    python3 perfbench/compare.py base.jsonl new.jsonl

For each workload and metric it prints each side's median and quartiles
(statistics.quantiles(values, n=4)) and the spread, the distance between
the quartiles as a share of the median. An end-to-end metric whose new
median is worse than the base median by more than its BENCHMARK.json bound
is flagged REGRESSED, and one whose spread on either side exceeds its
bound is flagged NOISY (its comparison is unresolved). With one file it
only reports the spreads. Exits 1 when anything is flagged.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    """{(workload, trace): {metric: [values]}} over runs with a result."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("result") is None:
                continue
            for name, m in rec["result"]["metrics"].items():
                runs[(rec["workload"], rec["trace"])][name].append(m["value"])
    return runs


def stats(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(sides, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    flagged = False
    keys = sorted(set().union(*(s.keys() for s in sides)))
    for workload, trace in keys:
        print(f"\n== {workload} (trace {trace})")
        names = sorted(set().union(*(s[(workload, trace)].keys() for s in sides)))
        for name in names:
            cols, meds = [], []
            noisy = False
            for s in sides:
                vals = s[(workload, trace)].get(name, [])
                med, q1, q3, spread = stats(vals)
                meds.append(med)
                cols.append(f"n={len(vals):2d} med {med:14.6g} q1 {q1:14.6g} "
                            f"q3 {q3:14.6g} spread {spread:6.3f}")
                if name in bounds and spread > bounds[name]["bound"]:
                    noisy = True
            flag = ""
            if name in bounds:
                b = bounds[name]
                if len(sides) == 2:
                    base, new = meds
                    worse = (new - base) / base if b["better"] == "lower" \
                        else (base - new) / base
                    if worse > b["bound"]:
                        flag = f" REGRESSED {worse:+.1%} > {b['bound']:.0%}"
                if noisy:
                    flag += f" NOISY (bound {b['bound']:.0%})"
            flagged |= bool(flag)
            print(f"  {name:28s} " + " | ".join(cols) + flag)
    return flagged


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sides = [load(p) for p in sys.argv[1:]]
    sys.exit(1 if report(sides, spec) else 0)


if __name__ == "__main__":
    main()

"""Self times from a perfbench span file.

The span file (written by a --trace 1 run) is tab-separated with a header:
id, parent, name, start_ns, end_ns, req. A span's self time is its duration
minus the part of it that its child spans cover (overlapping children are
merged first).

    python3 perfbench/spans.py .bench_build/spans-uniform_bulk.tsv

prints, per span name: count, median self time and total self time.
"""

import statistics
import sys
from collections import defaultdict


def load(path):
    spans = {}
    with open(path) as f:
        next(f)
        for line in f:
            sid, parent, name, start, end, _req = line.rstrip("\n").split("\t")
            spans[int(sid)] = (int(parent), name, int(start), int(end))
    return spans


def self_times_ns(spans):
    """{name: [self ns of each span with that name]}"""
    children = defaultdict(list)
    for parent, _name, start, end in spans.values():
        if parent:
            children[parent].append((start, end))
    out = defaultdict(list)
    for sid, (_parent, name, start, end) in spans.items():
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name].append(end - start - covered)
    return out


def self_time_us(path):
    """{name: median self time in microseconds}"""
    return {name: statistics.median(v) / 1e3
            for name, v in self_times_ns(load(path)).items()}


def main():
    for name, v in sorted(self_times_ns(load(sys.argv[1])).items()):
        print(f"{name:24s} n={len(v):8d}  median {statistics.median(v) / 1e3:12.2f}us"
              f"  total {sum(v) / 1e9:10.4f}s")


if __name__ == "__main__":
    main()

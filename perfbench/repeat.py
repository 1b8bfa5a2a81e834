#!/usr/bin/env python3
"""Run the benchmark over several seeds and record every result.

    python3 perfbench/repeat.py --workloads uniform_bulk,skewed_small \\
        --seeds 1-10 --trace 0 --out runs-a.jsonl

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace X` from the checkout root (T defaults to BENCHMARK.json's
run_seconds). One JSON line per run is appended to --out: {"workload",
"seed", "trace", "exit", "result"}, where result is the run's last output
line (null if it printed none). At the end the spread of every metric is
printed (see compare.py); compare two such files with compare.py.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import compare  # noqa: E402


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", required=True)
    a = ap.parse_args()

    with open(a.out, "a") as out:
        for workload in a.workloads.split(","):
            for seed in seed_list(a.seeds):
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(a.seconds), "--trace", str(a.trace)]
                proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                result = None
                if lines:
                    try:
                        result = json.loads(lines[-1])
                    except json.JSONDecodeError:
                        pass
                rec = {"workload": workload, "seed": seed, "trace": a.trace,
                       "exit": proc.returncode, "result": result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
                print(f"{workload} seed {seed}: {status}", flush=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr[-2000:])
    compare.report([compare.load(a.out)], spec)


if __name__ == "__main__":
    main()

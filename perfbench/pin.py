#!/usr/bin/env python3
"""Pin congest.rounds per workload (perfbench/pins.json).

    python3 perfbench/pin.py

Builds each workload's fixed instance (graph and scheme seed from
workloads.json; no serving) and records the round ledger total. Every
benchmark run checks its rounds against the pin, so a change that moves
the distributed construction's round count fails the run. Rerun this
only for a change that is meant to change round counts, and say so in
its description. Needs a build (run perfbench/run.py once first).
"""

import json
import os
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    config = json.loads((HERE / "workloads.json").read_text())
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = HERE.parent / build_dir
    pins = {}
    for workload, spec in config["workloads"].items():
        p = spec["params"]
        out = subprocess.run(
            [str(build_dir / "nors_perfbench"), f"--workload={workload}",
             f"--n={p['n']}", f"--instance-seed={p['instance_seed']}",
             "--rounds-only=1"],
            capture_output=True, text=True, check=True).stdout
        pins[workload] = int(out.split("PERFBENCH_ROUNDS ")[1].split()[0])
        print(f"{workload}: {pins[workload]} rounds", flush=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The repo benchmark, one workload per call.

    python3 perfbench/run.py --workload uniform_bulk --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (library sources from src/) into $CARGO_TARGET_DIR, default
.bench_build; later calls reuse the build. The frozen workload parameters
live in perfbench/workloads.json, the metric list in BENCHMARK.json.

Standard output: the benchmark's human-readable log, a `stamp:` line saying
where and how the numbers were made, and as the last line one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list
(the traced run also writes a span file into the build directory and
derives the self.* per-layer times from it).

Exit codes: 0 on a correct, valid run; 1 when an answer check failed (the
result line is still printed, with "correct": false); 3 when the
generator could not keep its schedule (a measured phase kept too few time
slices within the rerun budget; no result line: the figures would measure
the generator); 2 when the checkout has no sources to build or the
build or the run broke.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import spans  # noqa: E402

ROOT = HERE.parent


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return build_dir / "nors_perfbench"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE)
                   for p in d.rglob("*") if p.is_file()
                   and p.suffix in (".cc", ".h", ".txt", ".py", ".json"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def flag_args(params):
    args = []
    for key, value in params.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        args.append(f"--{key.replace('_', '-')}={value}")
    return args


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (ROOT / "src" / "net" / "server.h").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "workloads.json").read_text())
    if a.workload not in config["workloads"]:
        fail(f"unknown workload {a.workload!r}")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)

    params = dict(config["workloads"][a.workload]["params"])
    pins = json.loads((HERE / "pins.json").read_text())
    if a.workload in pins:
        params["rounds_pin"] = pins[a.workload]
    work_dir = build_dir / "run"
    span_file = build_dir / f"spans-{a.workload}.tsv"
    params.update(workload=a.workload, seed=a.seed, seconds=a.seconds,
                  trace=a.trace, work_dir=str(work_dir))
    if a.trace:
        params["span_file"] = str(span_file)

    stamp = json.loads((build_dir / "build_stamp.json").read_text())
    stamp.update(nproc=os.cpu_count() or 1, commit=git_commit(),
                 source=source_digest(), workload=a.workload, seed=a.seed,
                 seconds=a.seconds, trace=a.trace)

    try:
        proc = subprocess.run([str(binary)] + flag_args(params),
                              capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        elif line.startswith("PERFBENCH_STAMP "):
            # nors_perfbench's part: n, k, pool, geometry, connections.
            stamp.update(json.loads(line[len("PERFBENCH_STAMP "):]))
            print("stamp: " + json.dumps(stamp, sort_keys=True), flush=True)
        else:
            print(line)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or result is None:
        fail(f"benchmark exited with {proc.returncode}")
    if not result["valid"]:
        fail("invalid run: the generator fell behind its schedule", code=3)

    measured = dict(result["layer"] if a.trace else result["e2e"])
    if a.trace:
        for name, us in spans.self_time_us(span_file).items():
            measured[f"self.{name}_us"] = us
    wanted = bench_spec["per_layer" if a.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()

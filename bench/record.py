"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/record.py [--seeds 10] [--trace]
                            [--out bench/BENCH_baseline.json]

Runs ``bench/run.py`` once per workload and seed for the ``run_seconds``
of BENCHMARK.json, one process at a time, from the root of the checkout,
and prints for every end-to-end metric its median, quartiles and spread
(quartile distance over median, the figure each metric's bound in
BENCHMARK.json is compared with).  With
``--trace`` it adds one traced run per workload.  With ``--out`` it
writes the summary, the workload rationales, the layer map, the request
lists and the interpreter and core count of the run as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import runner  # noqa: E402
import workloads  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results):
    out = {}
    for key, first in results[0]["metrics"].items():
        values = [r["metrics"][key]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[key] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med if med else 0.0,
                    "values": values}
    return out


def request_labels(workload):
    work = ROOT / ".bench_work" / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        return [r.label for r in workloads.build(workload, 1, work)]
    finally:
        for f in work.iterdir():
            f.unlink()
        work.rmdir()


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = range(1, args.seeds + 1)

    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "machine": platform.machine(), "run_seconds": seconds,
              "calibration_reference_s": runner.CALIBRATION_REFERENCE_S,
              "seeds": list(seeds), "layer_map": workloads.LAYER_MAP,
              "workloads": {}}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    for name in workloads.WORKLOADS:
        results = [run_once(name, seed, seconds, False) for seed in seeds]
        entry = {"why": why[name],
                 "requests": request_labels(name),
                 "correct": all(r["correct"] for r in results),
                 "attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results],
                 "end_to_end": summarise(results)}
        print(f"{name}: correct={entry['correct']} "
              f"attempted={entry['attempted']}", flush=True)
        for key, s in entry["end_to_end"].items():
            limit = bounds.get(key)
            flag = ("" if limit is None or key == "setup_s"
                    or s["spread"] < limit / 3 else "  <-- spread over bound/3")
            print(f"  {key:16s} median {s['median']:12.4f} {s['unit']:4s} "
                  f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} "
                  f"spread {s['spread']:.4f} (bound {limit}){flag}\n"
                  f"    values {' '.join(f'{v:.4g}' for v in s['values'])}",
                  flush=True)
        if args.trace:
            traced = run_once(name, seeds[0], seconds, True)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
            for key, value in entry["per_layer"].items():
                print(f"  {key:45s} {value}")
        record["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()

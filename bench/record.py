"""Runs the benchmark on several seeds per workload, reports the spread of
each end-to-end metric against its bound in BENCHMARK.json, and with
--write records the figures, a traced run of every workload (`enumerate`
too) and the machine in bench/results.json.

    python3 bench/record.py --seeds 1-10 --write     # about 25 minutes
    python3 bench/record.py --workloads mult --seeds 1-5

The spread of a metric is the distance between the first and third
quartiles of its values (statistics.quantiles, n=4), as a share of their
median. Runs are made one at a time, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer values each workload's traced run is predicted to give: the
# layers a workload must leave alone, and the sweep's fixed graph count.
ISOLATION = {
    "enumerate": {"linalg.rank.calls": 0, "linalg.char_poly.calls": 0,
                  "reduction.fast.calls": 0, "canon.form.calls.general": 0},
    "mult": {"enumeration.trees.yielded": 0, "enumeration.unicyclic.yielded": 0,
             "linalg.char_poly.calls": 0},
    "sweep": {"verify.graphs_checked": 3783},
}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", action="store_true",
                        help="also make traced runs and write bench/results.json")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record: dict = {"workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = _run(workload, seed, args.seconds, 0)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: wrong output")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": vals}
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {workload} {name}: median {med:.4g} spread {spread:.3f}"
                  f" (bound {bounds[name]}, a third {bounds[name] / 3:.3f})",
                  flush=True)
        record["workloads"][workload] = {"end_to_end": summary}
    print(f"largest spread / bound, setup_s aside: {worst:.3f}")

    if args.write:
        sys.path.insert(0, str(HERE))
        import workloads

        for workload in workloads.WORKLOADS:
            traced = _run(workload, seeds[0], args.seconds, 1)
            layers = {k: m["value"] for k, m in traced["metrics"].items()}
            checks = {k: layers[k] == v for k, v in ISOLATION[workload].items()}
            print(workload, "isolation predictions:", checks)
            record["workloads"].setdefault(workload, {}).update(
                traced_seed=seeds[0], per_layer=layers, isolation_holds=checks)

        record["machine"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cpu_model": _cpu_model(),
        }
        record["sizes"] = dataclasses.asdict(workloads.FULL) | {
            "sweep_args": " ".join(workloads.sweep_requests(0, workloads.FULL)[0].argv)}
        record["seeds"] = seeds
        record["run_seconds"] = args.seconds
        (HERE / "results.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

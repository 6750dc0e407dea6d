"""The lap1 benchmark: one command that measures the end-to-end metrics of a
workload, or the per-layer metrics of a traced run, and checks every
answer.

    python3 bench/run.py --workload sweep --seed 1 --seconds 58 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 58   # every workload
    python3 bench/run.py --workload all --seed 1 --smoke --seconds 2  # tiny sizes

Run it from the root of a checkout; it imports lap1 from `src/` and reads
tests/fixtures.py. Each session runs in a fresh interpreter (session.py),
because lap1 memoises enumeration levels and multiplicities per process
and a user of the command line never finds them warm.

Untraced (--trace 0), a run first times SETUP_PROBES set-ups alone, then
starts sessions one after another while the next one is expected to end
within --seconds (at least one). Session k draws its inputs from seed
1000 * --seed + k, so a run covers more inputs than one session holds.
It reports, over the whole run:

  setup_s         median set-up of probes and sessions: interpreter start,
                  `import lap1` and input generation
  graphs_per_s    graphs finished / timed wall time, summed over sessions
  latency_p50_ms  median latency of one request
  latency_p90_ms  90th percentile of the same samples
  peak_rss_mb     largest ru_maxrss of a session process

A request is one `lap1 mult` call on `mult` (a pass sends 200, so p90 has
at least 20 samples above it) and one whole session on `sweep` (one
`verify all` call) and `enumerate` (four `enumerate` calls whose cost
depends on their order, as the second of each class reuses the level the
first memoised). The sample count is printed with the figures.

Traced (--trace 1), a run makes one untraced session and two traced ones
of the same inputs, whatever --seconds says. It checks that all three give the same answers and the
two traced ones the same counters, and reports the per-layer metrics
(times as the mean of the two), the tracing overhead (traced minus
untraced wall time) and the failed ratio.

Every answer goes through the gates in workloads.py. A failed gate is
printed, counts in `failed`, and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0  # a run must end within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "graphs_per_s": "graphs/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


class SessionError(Exception):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _session(workload: str, seed: int, smoke: bool, trace: bool = False,
             setup_only: bool = False, timeout: float = RUN_LIMIT_S) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LAP1_MAX_N"}
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = [sys.executable, str(Path(__file__).with_name("session.py")),
            "--workload", workload, "--seed", str(seed)]
    argv += ["--smoke"] * smoke + ["--trace"] * trace + ["--setup-only"] * setup_only
    spawned = _now()
    try:
        proc = subprocess.run(argv + ["--spawned", repr(spawned)], env=env,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise SessionError(f"{workload} session passed {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise SessionError(f"{workload} session exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _p90(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _graphs(workload: str, session: dict) -> int:
    """Graphs finished in a session: graphs checked, emitted or measured."""
    if workload == "sweep":
        return sum(r["graphs_checked"] for req in session["requests"]
                   for r in req["answer"] or ())
    if workload == "enumerate":
        return sum(len(req["answer"] or ()) for req in session["requests"])
    return len(session["requests"])


class Run:
    """Sessions of one workload and seed, and the verdict of their gates."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.sizes = workloads.SMOKE if smoke else workloads.FULL
        self.fixtures = workloads.load_fixture_counts(ROOT)
        self.begun = _now()
        self.attempted = 0
        self.failures: list[str] = []

    def session(self, k: int = 0, **kw) -> dict:
        """Session k of the run; its inputs come from seed * 1000 + k."""
        left = RUN_LIMIT_S - (_now() - self.begun)
        s = _session(self.workload, self.seed * 1000 + k, self.smoke,
                     timeout=left, **kw)
        if "requests" in s:
            for req in s["requests"]:
                if req["stderr"]:
                    print(f"{self.workload} {req['label']}: {req['stderr']}",
                          file=sys.stderr)
            attempted, failures = workloads.gate(self.workload, self.sizes,
                                                 self.fixtures, s["requests"])
            self.attempted += attempted
            self.fail(*failures)
        return s

    def fail(self, *failures: str) -> None:
        for failure in failures:
            print(f"FAILED {failure}", file=sys.stderr)
        self.failures += failures

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": min(len(self.failures), self.attempted),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }


def measure(workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, str]:
    run = Run(workload, seed, smoke)
    setups = [run.session(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    sessions: list[dict] = []
    first = _now()
    while True:
        sessions.append(run.session(len(sessions)))
        now = _now()
        if now - run.begun + (now - first) / len(sessions) > seconds:
            break
    setups += [s["setup_s"] for s in sessions]
    if workload == "mult":
        latencies = [r["latency_s"] for s in sessions for r in s["requests"]]
    else:
        latencies = [s["wall_s"] for s in sessions]
    metrics = {
        "setup_s": statistics.median(setups),
        "graphs_per_s": sum(_graphs(workload, s) for s in sessions)
        / sum(s["wall_s"] for s in sessions),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": _p90(latencies) * 1e3,
        "peak_rss_mb": max(s["rss_mb"] for s in sessions),
    }
    note = (f"{workload}: {len(sessions)} sessions, {len(latencies)} latency"
            f" samples, {len(setups)} set-up samples")
    return run.result(metrics, E2E_UNITS), note


def measure_traced(workload: str, seed: int, smoke: bool) -> tuple[dict, str]:
    run = Run(workload, seed, smoke)
    plain = run.session()
    traced = [run.session(trace=True) for _ in range(2)]
    answers = [[r["answer"] for r in s["requests"]] for s in [plain] + traced]
    if answers[1] != answers[0] or answers[2] != answers[0]:
        run.fail(f"{workload}: traced answers differ from untraced")
    units = tracing.per_layer_units()
    first, second = (s["layers"] for s in traced)
    metrics = {}
    for name, value in first.items():
        if units[name] == "s" or name in tracing.TIME_RATIOS:
            metrics[name] = (value + second[name]) / 2
        else:
            metrics[name] = value
            if second[name] != value:
                run.fail(f"{workload}: counter {name} is {value} then {second[name]}")
    traced_wall = (traced[0]["wall_s"] + traced[1]["wall_s"]) / 2
    metrics["trace.overhead_s"] = traced_wall - plain["wall_s"]
    metrics["failed_ratio"] = min(len(run.failures), run.attempted) / max(run.attempted, 1)
    note = (f"{workload}: untraced {plain['wall_s']:.2f} s, traced"
            f" {traced_wall:.2f} s per session")
    return run.result(metrics, units), note


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes on the same code paths")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/lap1/__init__.py", "tests/fixtures.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a lap1 checkout: {', '.join(missing)} missing under {ROOT}",
              file=sys.stderr)
        return 2

    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in chosen:
        try:
            if args.trace:
                result, note = measure_traced(workload, args.seed, args.smoke)
            else:
                result, note = measure(workload, args.seed, args.seconds, args.smoke)
        except SessionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results[workload] = result
        out = sys.stdout if args.workload == "all" else sys.stderr
        print(note, file=out)
        for name, m in result["metrics"].items():
            print(f"  {workload} {name} {m['value']:.6g} {m['unit']}", file=out)
        print(f"  {workload} attempted {result['attempted']} failed"
              f" {result['failed']}", file=out)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark session in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's `src`. It
imports lap1, builds the workload's requests from the seed, then sends
them one after another to `lap1.cli.main`, capturing standard output and
error, and prints one JSON line: set-up time, timed wall time, peak RSS,
and per request its exit code, latency and answer. With --trace the
requests run under tracing.Tracer and the line adds the per-layer
metrics. With --setup-only it stops once set-up is done.

Set-up runs from the moment run.py spawned the process (--spawned,
CLOCK_MONOTONIC, which all processes share) until the first request.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import lap1.cli

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(lap1.__file__).resolve().parents:
        print(f"lap1 was imported from {lap1.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    requests = workloads.build_requests(args.workload, args.seed, sizes)
    started = _now()
    result: dict = {"setup_s": started - args.spawned}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    runs = []
    t0 = time.perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lap1.cli.main(list(req.argv))
        runs.append((req, rc, time.perf_counter() - t, out.getvalue(), err.getvalue()))
    result["wall_s"] = time.perf_counter() - t0
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()

    done = []
    for req, rc, latency, stdout, stderr in runs:
        try:
            ans = workloads.answer(args.workload, stdout)
        except (ValueError, KeyError) as exc:
            ans = None
            stderr += f"\nunreadable output: {exc!r}"
        done.append({"label": req.label, "expect": req.expect, "rc": rc,
                     "latency_s": latency, "answer": ans,
                     "stderr": stderr[-2000:] if rc or ans is None else ""})
    result["requests"] = done
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

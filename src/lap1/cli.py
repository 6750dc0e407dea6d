"""Command-line front end.

Subcommands: mult, reduce, enumerate, verify, extremal.  Reports are JSON
on stdout (or --json-out PATH), human summaries go to stderr.  Exit
codes: 0 clean, 1 violations found, 2 usage or parse error, 3 internal
inconsistency (fast and exact engines disagree), 4 internal error (an
unexpected exception, whose traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from collections.abc import Callable
from pathlib import Path

from .enumeration import free_trees, unicyclic_graphs
from .extremal import ExtremalSpec, extremal_tree, extremal_unicyclic
from .graph6 import (
    MAX_N as GRAPH6_MAX_N,
    Graph6Error,
    parse_graph6,
    read_edge_list,
    to_graph6,
)
from .graphs import Graph, find_pendant_paths, is_reduced, pendant_profile
from .linalg import laplacian_multiplicity_one
from .reduction import (
    ReductionTrace,
    final_reduction_graph,
    multiplicity_fast,
    reduced_graph_steps,
)
from .verify import SUITES, run_suite, suite_max_n

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_INTERNAL = 4


def _no_pendant_p3(g: Graph) -> bool:
    return not find_pendant_paths(g, 3)


FILTER_ALIASES = {
    "reduced": is_reduced,
    "nop3": _no_pendant_p3,
    "noP3": _no_pendant_p3,
    "no-pendant-P3": _no_pendant_p3,
}


class UsageError(Exception):
    pass


def _max_n_cap() -> int | None:
    raw = os.environ.get("LAP1_MAX_N")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"LAP1_MAX_N must be an integer, got {raw!r}") from exc


def _check_cap(n: int) -> None:
    cap = _max_n_cap()
    if cap is not None and n > cap:
        raise UsageError(f"n={n} exceeds the LAP1_MAX_N={cap} safety cap")


def _load_graph(args: argparse.Namespace) -> Graph:
    g = _read_graph(args)
    _check_cap(g.n)
    return g


def _check_graph6_order(g: Graph, what: str) -> None:
    """Reduce reports carry graph6, so an order it cannot encode is a
    usage error, checked on the input and again on the result."""
    if g.n > GRAPH6_MAX_N:
        raise UsageError(
            f"{what} has order {g.n}, over {GRAPH6_MAX_N}, the largest"
            " graph6 encodes; mult writes no graph6"
        )


def _read_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "g6", None):
        try:
            return parse_graph6(args.g6)
        except Graph6Error as exc:
            raise UsageError(f"bad graph6 input: {exc}") from exc
    if getattr(args, "file", None):
        try:
            text = Path(args.file).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {args.file}: {exc}") from exc
        lines = [line for line in text.splitlines() if line.strip()]
        head = lines[0] if lines else ""
        parts = head.split()
        if len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
            try:
                return read_edge_list(text)
            except ValueError as exc:
                raise UsageError(f"bad edge list in {args.file}: {exc}") from exc
        if len(lines) > 1:
            raise UsageError(
                f"{args.file} holds {len(lines)} graph6 lines; give one graph"
            )
        try:
            return parse_graph6(head)
        except Graph6Error as exc:
            raise UsageError(f"bad graph6 in {args.file}: {exc}") from exc
    raise UsageError("provide a graph with --g6 or --file")


def _emit(payload: dict | list, args: argparse.Namespace) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "json_out", None):
        try:
            Path(args.json_out).write_text(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.json_out}: {exc}") from exc
    else:
        print(text)


def _cmd_mult(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    prof = pendant_profile(g)
    payload: dict = {"n": g.n, "p": prof.p, "q": prof.q, "method": args.method}
    code = EXIT_OK
    if args.method in ("exact", "both"):
        payload["m1"] = laplacian_multiplicity_one(g)
    if args.method in ("fast", "both"):
        m_fast, trace = multiplicity_fast(g)
        payload.setdefault("m1", m_fast)
        payload["trace"] = trace.to_json()
        if args.method == "both" and m_fast != payload["m1"]:
            payload["m1_exact"] = payload["m1"]
            payload["m1_fast"] = m_fast
            code = EXIT_INCONSISTENT
    _emit(payload, args)
    if code == EXIT_INCONSISTENT:
        print(
            f"engines disagree: exact={payload['m1_exact']}"
            f" fast={payload['m1_fast']}",
            file=sys.stderr,
        )
    else:
        print(
            f"n={g.n} m1={payload['m1']} p={prof.p} q={prof.q}", file=sys.stderr
        )
    return code


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    _check_graph6_order(g, "the input")
    reduce = final_reduction_graph if args.to == "final" else reduced_graph_steps
    result, steps = reduce(g)
    _check_graph6_order(result, f"the {args.to} graph")
    trace = ReductionTrace(g, steps, sum(s.offset for s in steps))
    _emit({"input_g6": to_graph6(g), "graph6": to_graph6(result),
           "offset": trace.total, "trace": trace.to_json()}, args)
    print(f"n={g.n} -> n={result.n} offset={trace.total} steps={len(steps)}",
          file=sys.stderr)
    return EXIT_OK


def _parse_filters(raw: str | None) -> Callable[[Graph], bool]:
    """The conjunction of the comma-listed filters; none keeps every graph."""
    predicates = []
    for token in raw.split(",") if raw else ():
        token = token.strip()
        if token not in FILTER_ALIASES:
            raise UsageError(f"unknown filter {token!r}; known: reduced, noP3")
        predicates.append(FILTER_ALIASES[token])
    return lambda g: all(p(g) for p in predicates)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    """Prints the canonical graph6 of each graph kept, sorted."""
    _check_cap(args.n)
    generate = free_trees if args.cls == "tree" else unicyclic_graphs
    try:
        graphs = generate(args.n)  # checks n; the graphs come as iterated
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    keep = _parse_filters(args.filter)
    lines = sorted(to_graph6(g) for g in graphs if keep(g))
    for line in lines:
        print(line)
    print(f"{len(lines)} graphs", file=sys.stderr)
    return EXIT_OK


def _cmd_extremal(args: argparse.Namespace) -> int:
    _check_cap(args.n)
    try:
        spec = ExtremalSpec(args.cls, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    g = extremal_tree(spec.n) if spec.family == "tree" else extremal_unicyclic(spec.n)
    print(f"{to_graph6(g)} m={spec.k}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    for flag, value, least in (
        ("--max-n", args.max_n, 1),
        ("--jobs", args.jobs, 1),
        ("--random-graphs", args.random_graphs, 0),
    ):
        if value is not None and value < least:
            raise UsageError(f"{flag} must be at least {least}, got {value}")
    for suite in SUITES if args.suite == "all" else (args.suite,):
        _check_cap(suite_max_n(suite, args.max_n))
    # fail before the sweep, not after it, if the report has nowhere to go
    folder = args.json_out and Path(args.json_out).parent
    if folder and not (folder.is_dir() and os.access(folder, os.W_OK)):
        raise UsageError(f"cannot write {args.json_out}: {folder} is not a"
                         " writable directory")
    reports = run_suite(
        args.suite,
        max_n=args.max_n,
        seed=args.seed,
        jobs=args.jobs,
        n_random=args.random_graphs,
    )
    payload = [r.to_json() for r in reports]
    _emit(payload if len(payload) > 1 else payload[0], args)
    for r in reports:
        print(r.summary(), file=sys.stderr)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATIONS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lap1",
        description="Exact multiplicity of 1 as a Laplacian eigenvalue:"
        " computation, reductions, enumeration, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--g6", help="graph6 string")
        p.add_argument("--file", help="file holding graph6 or an edge list")
        p.add_argument("--json-out", dest="json_out", help="write JSON here")

    p = sub.add_parser("mult", help="multiplicity of 1 for one graph")
    add_input(p)
    p.add_argument(
        "--method", choices=("exact", "fast", "both"), default="both"
    )
    p.set_defaults(fn=_cmd_mult)

    p = sub.add_parser("reduce", help="reduced or final reduction graph")
    add_input(p)
    p.add_argument("--to", choices=("reduced", "final"), default="reduced")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("enumerate", help="emit one graph6 per line")
    p.add_argument("--class", dest="cls", required=True,
                   choices=("tree", "unicyclic"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter", help="comma list: reduced, noP3")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("extremal", help="equality-attaining graph")
    p.add_argument("--class", dest="cls", required=True,
                   choices=("tree", "unicyclic"))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_extremal)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--random-graphs", dest="random_graphs", type=int,
                   default=1000, help="random connected graphs for thm1")
    p.add_argument("--json-out", dest="json_out", help="write JSON here")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""graph6 encoding plus the plain edge-list text format.

graph6 packs the upper triangle of the adjacency matrix, column by column
((0,1), (0,2), (1,2), (0,3), ...), into 6-bit groups offset by 63.  The
vertex count is one byte for n <= 62 and a 126-prefixed 3-byte group up
to n = 258047.

The edge-list text format is: a first line "n m", then m lines "u v"
with 0-indexed whitespace-separated endpoints.
"""

from __future__ import annotations

import re
from math import isqrt
from typing import Iterable

from .graphs import Graph

HEADER = ">>graph6<<"
MAX_N = 258047  # the largest order the 3-byte vertex count holds


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def to_graph6(g: Graph) -> str:
    return encode_graph6(g.n, g.edges)


def encode_graph6(n: int, pairs: Iterable[tuple[int, int]]) -> str:
    """graph6 of the graph on 0..n-1 with the given edges, each listed
    once, in either orientation."""
    if n <= 62:
        head = chr(n + 63)
    elif n <= MAX_N:
        head = chr(126) + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))
    else:
        raise Graph6Error(f"vertex count {n} too large for this encoder")
    # Every group starts as "?" (63, no bits set); each edge sets its bit.
    body = bytearray(b"?" * ((n * (n - 1) // 2 + 5) // 6))
    for i, j in pairs:
        bit = j * (j - 1) // 2 + i if i < j else i * (i - 1) // 2 + j
        body[bit // 6] += 32 >> (bit % 6)
    return head + body.decode("ascii")


_INVALID = re.compile(r"[^?-~]")  # outside chr(63)..chr(126)
_NONZERO = re.compile(rb"[^?]")  # a group with at least one bit set


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(HEADER):
        s = s[len(HEADER):].strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    bad = _INVALID.search(s)
    if bad:
        raise Graph6Error(f"invalid graph6 character {bad.group()!r}")
    data = s.encode("ascii")
    if data[0] == 126:
        if len(data) < 4:
            raise Graph6Error("truncated extended vertex count")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"payload length {len(body)} does not match n={n} (expected {need})"
        )
    edges = []
    for hit in _NONZERO.finditer(body):
        group = hit.start()
        val = body[group] - 63
        for offset in range(6):
            if (val >> (5 - offset)) & 1:
                bit = group * 6 + offset
                if bit >= npairs:
                    raise Graph6Error("nonzero trailing padding bits")
                # pairs run column by column: column j starts at j(j-1)/2
                j = (1 + isqrt(8 * bit + 1)) // 2
                edges.append((bit - j * (j - 1) // 2, j))
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError("edge-list input must start with a line 'n m'")
    try:
        n, m = int(rows[0][0]), int(rows[0][1])
    except ValueError as exc:
        raise ValueError(f"bad header line: {rows[0]}") from exc
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    pairs = []
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"bad edge line: {' '.join(row)}")
        pairs.append((int(row[0]), int(row[1])))
    return Graph(n, pairs)

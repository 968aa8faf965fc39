"""Instance file format and graph family generators.

The on-disk format is DIMACS-like: a header line ``p <tag> <n> <m>``
followed by ``m`` edge lines ``e <u> <v>`` with 1-indexed endpoints, plus
optional ``c`` comment lines.  Internally vertices are 0-indexed; parsing
subtracts one and writing adds it back, ranking vertices by ascending id.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping

from mmfvs.graph import Graph

FAMILIES = ("gnp", "cycle", "complete", "apexpair", "disjoint-cycles", "reduction-output")


class InstanceFormatError(ValueError):
    """Malformed instance text; the message carries the offending line number."""


def parse_instance(text: str) -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise InstanceFormatError(f"line {lineno}: duplicate header")
            if len(fields) != 4:
                raise InstanceFormatError(f"line {lineno}: header must be 'p <tag> <n> <m>'")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise InstanceFormatError(f"line {lineno}: non-integer header counts") from None
            if n < 0 or m < 0:
                raise InstanceFormatError(f"line {lineno}: negative counts in header")
        elif fields[0] == "e":
            if n is None:
                raise InstanceFormatError(f"line {lineno}: edge before header")
            if len(fields) != 3:
                raise InstanceFormatError(f"line {lineno}: edge line must be 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise InstanceFormatError(f"line {lineno}: non-integer endpoint") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceFormatError(f"line {lineno}: endpoint out of range 1..{n}")
            if u == v:
                raise InstanceFormatError(f"line {lineno}: self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InstanceFormatError(f"line {lineno}: duplicate edge {u} {v}")
            seen.add(key)
            edges.append((u - 1, v - 1))
        else:
            raise InstanceFormatError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise InstanceFormatError("line 1: missing header")
    if m != len(edges):
        raise InstanceFormatError(f"header announced {m} edges, found {len(edges)}")
    return Graph(range(n), edges)


def write_instance(g: Graph, comments: Iterable[str] = ()) -> str:
    """Serialize a graph; vertices are ranked by ascending id onto 1..n."""
    rank = {v: i + 1 for i, v in enumerate(g.sorted_vertices())}
    lines = [f"c {comment}" for comment in comments]
    lines.append(f"p mmfvs {len(g)} {g.edge_count()}")
    lines.extend(f"e {rank[u]} {rank[v]}" for u, v in sorted(g.edges()))
    return "\n".join(lines) + "\n"


def _apex_pair(n: int) -> Graph:
    # Two adjacent hubs 0 and 1 covering the independent vertices 2..n-1:
    # minimum fvs 1, vertex cover {0, 1}, largest minimal fvs n - 2.
    if n < 3:
        raise ValueError("apexpair needs n >= 3")
    edges = [(0, 1)]
    for v in range(2, n):
        edges.append((0, v))
        edges.append((1, v))
    return Graph(range(n), edges)


def _disjoint_cycles(sizes: Iterable[int]) -> Graph:
    edges: list[tuple[int, int]] = []
    base = 0
    for size in sizes:
        if size < 3:
            raise ValueError("cycle sizes must be >= 3")
        edges.extend((base + i, base + (i + 1) % size) for i in range(size))
        base += size
    return Graph(range(base), edges)


def _gnp(n: int, p: float, seed: int | None) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(range(n), edges)


def generate(
    family: str, params: Mapping[str, object] | None = None, seed: int | None = None
) -> Graph:
    """Deterministic graph generator: same (family, params, seed), same graph."""
    p = dict(params or {})
    if family == "gnp":
        return _gnp(int(p["n"]), float(p["p"]), seed)
    if family == "cycle":
        n = int(p["n"])
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])
    if family == "complete":
        n = int(p["n"])
        return Graph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n)])
    if family == "apexpair":
        return _apex_pair(int(p["n"]))
    if family == "disjoint-cycles":
        sizes = p["sizes"]
        if isinstance(sizes, str):
            sizes = [int(s) for s in sizes.split(",") if s]
        return _disjoint_cycles([int(s) for s in sizes])  # type: ignore[union-attr]
    if family == "reduction-output":
        from mmfvs.reduction import ppt_mmvc_to_mmfvs

        base = _gnp(int(p["n"]), float(p.get("p", 0.5)), seed)
        return ppt_mmvc_to_mmfvs(base, int(p.get("k", 0))).graph
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")

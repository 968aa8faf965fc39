"""Instance file format and graph family generators.

The on-disk format is DIMACS-like: a header line ``p <tag> <n> <m>``
followed by ``m`` edge lines ``e <u> <v>`` with 1-indexed endpoints, plus
optional ``c`` comment lines.  Internally vertices are 0-indexed; parsing
subtracts one and writing adds it back, ranking vertices by ascending id.
"""

from __future__ import annotations

import math
import random
import struct
from itertools import combinations
from typing import Iterable, Mapping

from mmfvs.graph import Graph

FAMILIES = ("gnp", "cycle", "complete", "apexpair", "disjoint-cycles", "reduction-output")


class InstanceFormatError(ValueError):
    """Malformed instance text; the message carries the offending line number."""


def parse_instance(text: str) -> Graph:
    n = m = None
    ids: list[int] = []
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
            # ids[u] is the vertex of file id u (ids[0] is unused): one int
            # object per vertex, shared by its key and every edge end
            ids = [-1, *range(n)]
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
            edges.append((ids[u], ids[v]))
        else:
            raise InstanceFormatError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise InstanceFormatError("line 1: missing header")
    if m != len(edges):
        raise InstanceFormatError(f"header announced {m} edges, found {len(edges)}")
    return Graph(ids[1:], edges)


def write_instance(g: Graph, comments: Iterable[str] = ()) -> str:
    """Serialize a graph, one `c` line per comment line; vertices are ranked by ascending id onto 1..n."""
    rank = {v: i + 1 for i, v in enumerate(g.sorted_vertices())}
    lines = [f"c {line}" for comment in comments for line in comment.splitlines() or [""]]
    lines.append(f"p mmfvs {len(g)} {g.edge_count()}")
    lines.extend(f"e {rank[u]} {rank[v]}" for u, v in sorted(g.edges()))
    return "\n".join(lines) + "\n"


def _apex_pair(n: int) -> Graph:
    # Two adjacent hubs 0 and 1 covering the independent vertices 2..n-1:
    # minimum fvs 1, vertex cover {0, 1}, largest minimal fvs n - 2.
    if n < 3:
        raise ValueError("apexpair needs n >= 3")
    ids = list(range(n))
    hub, other, *independents = ids
    edges = [(hub, other)]
    for v in independents:
        edges.append((hub, v))
        edges.append((other, v))
    return Graph(ids, edges)


def _disjoint_cycles(sizes: list[int]) -> Graph:
    ids = list(range(sum(sizes)))
    edges: list[tuple[int, int]] = []
    base = 0
    for size in sizes:
        ring = ids[base:base + size]
        edges.extend(zip(ring, ring[1:] + ring[:1]))
        base += size
    return Graph(ids, edges)


# pairs whose coins one getrandbits call draws on the bulk path of `_gnp`
_BLOCK = 1 << 14
_WORDS = struct.Struct("<II")


def _gnp(n: int, p: float, seed: int | None) -> Graph:
    """G(n, p): each pair u < v, in u-major order, is an edge iff its coin is below p.

    Each pair's coin is the value of one ``random()`` call on
    ``random.Random(seed)``: ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` for
    the next two 32-bit Mersenne Twister words a and b.  Graphs of at least
    one block of pairs with p < 1/16 draw the coins in bulk instead:
    ``getrandbits(64 * r)`` returns the same next 2r words, first word in
    the lowest bits.  A coin whose a has top byte t is at least t / 256, so
    only pairs with t < 256 p can be edges; ``bytes.find`` walks to them at C
    speed and each is decided by the formula above.  Smaller or denser
    graphs draw one ``random()`` per pair, which is faster there.  Both
    paths give the same edges from the same part of the stream, so every
    (n, p, seed) gives one graph, and both take every edge end from the
    vertex keys' own ints, as `parse_instance` does.
    """
    rng = random.Random(seed)
    ids = list(range(n))
    pairs = n * (n - 1) // 2
    if pairs < _BLOCK or p >= 1 / 16:
        edges = [(u, v) for u in ids for v in ids[u + 1:] if rng.random() < p]
        return Graph(ids, edges)
    below = p * 2**53  # random() < p iff its 53-bit numerator is below this
    marks = bytes(0 if t < p * 256 else 1 for t in range(256))  # 0: may be an edge
    edges = []
    u, row_start, row_end = 0, 0, n - 1  # row u holds the pair indices [row_start, row_end)
    for start in range(0, pairs, _BLOCK):
        count = min(_BLOCK, pairs - start)
        words = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
        tops = words[3::8].translate(marks)  # byte 3 of each pair is a's top byte
        i = tops.find(0)
        while i >= 0:
            a, b = _WORDS.unpack_from(words, 8 * i)
            if (a >> 5) * 2**26 + (b >> 6) < below:
                index = start + i
                while index >= row_end:
                    u += 1
                    row_start, row_end = row_end, row_end + n - 1 - u
                edges.append((ids[u], ids[u + 1 + index - row_start]))
            i = tops.find(0, i + 1)
    return Graph(ids, edges)


def _param(family: str, params: Mapping[str, object], name: str, default: object = None) -> object:
    if name in params:
        return params[name]
    if default is None:
        raise ValueError(f"{family}: parameter {name} is missing")
    return default


def _count(family: str, params: Mapping[str, object]) -> int:
    value = _param(family, params, "n")
    if not isinstance(value, int) or value < 0:
        raise ValueError(f"{family}: parameter n must be a non-negative integer, got {value!r}")
    return value


def _probability(family: str, params: Mapping[str, object], default: object = None) -> float:
    value = _param(family, params, "p", default)
    try:
        p = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        p = math.nan
    if not 0 <= p <= 1:  # also refuses NaN
        raise ValueError(f"{family}: parameter p must be a number in [0, 1], got {value!r}")
    return p


def _sizes(family: str, params: Mapping[str, object]) -> list[int]:
    """`sizes` given as one int >= 3, a list of them, or their comma-separated text."""
    value = _param(family, params, "sizes")
    if isinstance(value, str):
        items: object = [s for s in value.split(",") if s]
    else:
        items = [value] if isinstance(value, int) else value
    try:
        sizes = [int(s) if isinstance(s, str) else s for s in items]  # type: ignore[attr-defined]
    except (TypeError, ValueError):
        sizes = None
    if sizes is None or not all(isinstance(s, int) and s >= 3 for s in sizes):
        raise ValueError(f"{family}: parameter sizes must be integers >= 3, got {value!r}")
    return sizes


def generate(
    family: str, params: Mapping[str, object] | None = None, seed: int | None = None
) -> Graph:
    """Deterministic graph generator: same (family, params, seed), same graph.

    gnp and reduction-output draw their random graphs with `_gnp`, whose
    coins come from the stream of one ``random()`` call per pair, drawn in
    bulk for large sparse graphs and one at a time otherwise; so every
    (n, p, seed) gives the graph it always gave.  A missing parameter, an
    ``n`` that is not a non-negative integer, a ``p`` that is NaN or outside
    [0, 1] and a ``sizes`` that is not one integer >= 3, a list of them or
    their comma-separated text raise a ValueError naming the family and the
    parameter.  A key the family does not read is ignored: reduction-output's
    ``k`` sets only the reduction's target k' = k + n + 2, not its graph.
    """
    p = dict(params or {})
    if family == "gnp":
        return _gnp(_count(family, p), _probability(family, p), seed)
    if family == "cycle":
        n = _count(family, p)
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        ids = list(range(n))
        return Graph(ids, zip(ids, ids[1:] + ids[:1]))
    if family == "complete":
        ids = list(range(_count(family, p)))
        return Graph(ids, combinations(ids, 2))
    if family == "apexpair":
        return _apex_pair(_count(family, p))
    if family == "disjoint-cycles":
        return _disjoint_cycles(_sizes(family, p))
    if family == "reduction-output":
        from mmfvs.reduction import ppt_mmvc_to_mmfvs

        base = _gnp(_count(family, p), _probability(family, p, 0.5), seed)
        return ppt_mmvc_to_mmfvs(base, 0).graph
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")

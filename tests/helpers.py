"""Shared constructions and independent mini-oracles used across tests."""

from __future__ import annotations

import random
from itertools import combinations

from mmfvs.graph import Graph, is_acyclic_without
from mmfvs.ksolver import opt_upper_bound, solve_k
from mmfvs.report import Solution
from mmfvs.vcsolver import solve_vc
from mmfvs.verify import greedy_minimal_fvs, is_fvs, min_vertex_cover, private_cycle

# re-exported for the acceptance tests: the atlas code lives in corpus.py,
# whose source alone keys the cached corpus
from corpus import atlas_all_graphs  # noqa: F401


def apex_pair(n: int = 6) -> Graph:
    """Two adjacent hubs (0, 1) covering independent vertices 2..n-1."""
    edges = [(0, 1)] + [(h, v) for v in range(2, n) for h in (0, 1)]
    return Graph(range(n), edges)


def cycle(n: int) -> Graph:
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n)])


def disjoint_triangles(count: int) -> Graph:
    edges = []
    for t in range(count):
        b = 3 * t
        edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
    return Graph(range(3 * count), edges)


def gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(
        range(n),
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
    )


def subdivided(g: Graph, seed: int) -> Graph:
    """g with about half of its edges replaced by paths of two or three edges."""
    rng = random.Random(seed)
    n = len(g)
    edges = []
    for u, v in g.edges():
        extra = rng.choice((0, 0, 1, 2))
        chain = [u, *range(n, n + extra), v]
        n += extra
        edges += zip(chain, chain[1:])
    return Graph(range(n), edges)


def random_graphs(count: int, seed: int, max_n: int = 40):
    """Seeded gnp graphs with 3-max_n vertices, from near-forests to dense."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, max_n)
        p = min(1.0, rng.choice((0.8, 1.5, 2.5, 4.0, 8.0)) / n)
        yield gnp(n, p, seed=rng.randrange(2**32))


def random_subset(g: Graph, rng: random.Random, share: float) -> frozenset[int]:
    return frozenset(v for v in g.sorted_vertices() if rng.random() < share)


def prune_reference(g: Graph, s, order) -> frozenset[int]:
    """Per-vertex pruning: one full acyclicity sweep for every vertex tried."""
    s = set(s)
    for v in order:
        if is_acyclic_without(g, s - {v}):
            s.remove(v)
    return frozenset(s)


def greedy_minimal_fvs_reference(g: Graph) -> frozenset[int]:
    """The greedy minimal fvs the slow way: S = V pruned in descending order."""
    return prune_reference(g, g.vertices, sorted(g.vertices, reverse=True))


def minimal_certificate_reference(g: Graph, s) -> dict[int, tuple[int, ...]] | None:
    """Minimality certificate with one `private_cycle` BFS per member, or None."""
    s = frozenset(s)
    if not is_acyclic_without(g, s):
        return None
    cert: dict[int, tuple[int, ...]] = {}
    for v in sorted(s):
        cycle = private_cycle(g, v, s - {v})
        if cycle is None:
            return None
        cert[v] = cycle
    return cert


def opt_exact_sweep_reference(g: Graph) -> tuple[int, Solution]:
    """The optimum and its witness by `solve_k` at every k from 0 up to the first no."""
    best = solve_k(g, 0).solution
    opt = 0
    for k in range(1, len(g) + 1):
        report = solve_k(g, k)
        if not report.is_yes:
            break
        best, opt = report.solution, k
    return opt, best


def opt_exact_witness_reference(g: Graph, sweep_witness: Solution) -> Solution:
    """The witness `opt_exact_solution` returns, given the k-sweep's.

    Its rule restated: where the greedy W lies below `opt_upper_bound` and
    tau <= |W| + 4 or tau <= bound - |W|, a `solve_vc` solution larger than
    W is the witness.  Everywhere else it is the sweep's, which is W itself
    when the optimum is |W|.
    """
    w = greedy_minimal_fvs(g)
    bound = opt_upper_bound(g)
    tau = len(min_vertex_cover(g))
    if len(w) < bound and (tau <= len(w) + 4 or tau <= bound - len(w)):
        found = solve_vc(g)[0]
        if len(found.vertices) > len(w):
            return found
    return sweep_witness


def peel_reference(g: Graph, live) -> set[int]:
    """The degree rule by sweeps: delete every degree <= 1 vertex of g[live], repeat."""
    live = set(live)
    removed: set[int] = set()
    while True:
        victims = [v for v in sorted(live) if len(g.neighbors(v) & live) <= 1]
        if not victims:
            return removed
        live.difference_update(victims)
        removed.update(victims)


def cycle_closers_reference(g: Graph, out, candidates) -> list[int]:
    """The cycle-closer rule by component labels: two neighbors in one g[out] tree."""
    comp_of: dict[int, int] = {}
    for i, comp in enumerate(g.induced(out).components()):
        for v in comp:
            comp_of[v] = i
    closers: list[int] = []
    for v in sorted(candidates):
        touched: set[int] = set()
        for u in g.neighbors(v):
            if u not in comp_of:
                continue
            if comp_of[u] in touched:
                closers.append(v)
                break
            touched.add(comp_of[u])
    return closers


def brute_cycle_vertices(g: Graph) -> set[int]:
    """Vertices lying on some simple cycle, by exhaustive subset checking.

    A vertex set T carries a simple cycle visiting all of T iff the induced
    subgraph is connected with every degree exactly 2.
    """
    on_cycle: set[int] = set()
    vs = g.sorted_vertices()
    for size in range(3, len(vs) + 1):
        for subset in combinations(vs, size):
            t = set(subset)
            degs = [len(g.neighbors(v) & t) for v in subset]
            if any(d != 2 for d in degs):
                continue
            if len(Graph(t, [(u, v) for u, v in g.edges() if u in t and v in t]).components()) == 1:
                on_cycle |= t
    return on_cycle


def brute_min_vertex_cover_size(g: Graph) -> int:
    edges = list(g.edges())
    vs = g.sorted_vertices()
    for size in range(len(vs) + 1):
        for subset in combinations(vs, size):
            s = set(subset)
            if all(u in s or v in s for u, v in edges):
                return size
    raise AssertionError("V itself always covers")


def min_vertex_cover_reference(g: Graph) -> frozenset[int]:
    """The first minimum cover of plain pick-an-edge branching, with no lower bound.

    Branches on the lexicographically smallest uncovered edge, each
    endpoint in turn, and replaces the best cover only by a strictly
    smaller one.
    """
    edges = sorted(g.edges())
    if not edges:
        return frozenset()
    best = set(g.vertices)
    chosen: set[int] = set()

    def branch() -> None:
        nonlocal best
        if len(chosen) >= len(best):
            return
        uncovered = next(
            (e for e in edges if e[0] not in chosen and e[1] not in chosen), None
        )
        if uncovered is None:
            best = set(chosen)
            return
        for w in uncovered:
            chosen.add(w)
            branch()
            chosen.discard(w)

    branch()
    return frozenset(best)


def is_minimal_fvs_by_deletion(g: Graph, s) -> bool:
    """Definitional minimality test: dropping any one vertex breaks fvs-ness."""
    s = frozenset(s)
    if not is_fvs(g, s):
        return False
    return all(not is_fvs(g, s - {v}) for v in s)


def neighborhood_components(g: Graph, c_out, u: int) -> frozenset[int]:
    """Ids (minimum members) of the g[c_out] components adjacent to u, from the component list."""
    c_out = frozenset(c_out)
    if u in c_out:
        raise ValueError(f"{u} is itself committed outside")
    return frozenset(
        min(comp) for comp in g.induced(c_out).components() if g.neighbors(u) & comp
    )

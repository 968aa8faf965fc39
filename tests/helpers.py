"""Shared constructions and independent mini-oracles used across tests."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from typing import Callable, Iterator

from hypothesis import strategies as st

from mmfvs.graph import Graph, chain_kernel, degree_bound, is_acyclic_without, two_core
from mmfvs.ksolver import solve_k
from mmfvs.report import Solution
from mmfvs.vcsolver import (
    CoverGuess, _search_bound, cycle_rank, settle_guess, solve_vc, tree_masks,
)
from mmfvs.verify import (
    greedy_minimal_fvs, is_fvs, is_minimal_fvs, partial_minimality_ok, private_cycle,
)

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
    """The per-pair reference for `generate("gnp")`: one random() call per pair."""
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


@st.composite
def connected_graphs(draw, max_n=9):
    """Hypothesis strategy: connected graphs with at most max_n vertices."""
    # a random tree keeps the graph connected, and the extra edges close cycles
    n = draw(st.integers(min_value=1, max_value=max_n))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(range(n), tree + extra)


@st.composite
def with_pendant_trees(draw, max_n=14):
    """Hypothesis strategy: a `gnp` or `cycle` base with random trees hung off it.

    Each vertex past the base joins one earlier vertex, so the hung
    vertices form trees that `graph.two_core` peels away, and the graph
    has at most max_n vertices.
    """
    base_n = draw(st.integers(min_value=3, max_value=8))
    if draw(st.booleans()):
        base = cycle(base_n)
    else:
        base = gnp(base_n, draw(st.floats(min_value=0.3, max_value=0.9)), draw(st.integers(0, 1 << 16)))
    n = draw(st.integers(min_value=base_n, max_value=max_n))
    hung = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(base_n, n)]
    return Graph(range(n), list(base.edges()) + hung)


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


def certificate_is_valid(g: Graph, s: frozenset[int], cert) -> bool:
    """Validate a minimality certificate against the graph it came from."""
    if set(cert) != set(s):
        return False
    for v, cycle in cert.items():
        if len(cycle) < 3 or len(set(cycle)) != len(cycle) or v not in cycle:
            return False
        if any(w != v and w in s for w in cycle):
            return False
        closed = (*cycle, cycle[0])
        if any(not g.has_edge(a, b) for a, b in zip(closed, closed[1:])):
            return False
    return True


def opt_upper_bound(g: Graph) -> int:
    """An upper bound on the largest minimal fvs size, from degrees alone.

    Vertices off the 2-core (`two_core`) lie on no cycle, so no minimal
    fvs holds one, and the minimal fvs of g are exactly those of its
    2-core C.  The bound is `degree_bound(C, (), C.vertices)`: with n'
    core vertices, n' - t for the fewest t largest core degrees summing
    to at least 2(n' - t).
    """
    core = two_core(g)
    return degree_bound(core, (), core.vertices)


def kernel_bound(g: Graph) -> int:
    """The degree-sum bound on `chain_kernel(g)` that gates `approx_solve`'s greedy."""
    kernel = chain_kernel(g)
    return degree_bound(kernel, (), kernel.vertices)


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


def opt_exact_witness_reference(g: Graph) -> Solution:
    """The witness `opt_exact_solution` returns, by its one rule restated.

    `solve_vc`'s solution when it is larger than the greedy W, else W.
    """
    w = greedy_minimal_fvs(g)
    found = solve_vc(g)[0]
    return found if len(found.vertices) > len(w) else Solution(w, is_minimal_fvs(g, w))


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


def cover_guesses_reference(
    g: Graph, cover: frozenset[int], tally: Counter[str], can_win: Callable[[int], bool]
) -> Iterator[CoverGuess]:
    """`vcsolver.cover_guesses` split by split: every split is bounded on its own.

    Each split's cover_out side is flooded first, and a split with a
    cyclic cover_out side is dropped uncounted; then come the |L| cuts,
    the cycle-rank cut, the settled bound and the private-cycle sweep, with
    no split skipped for a subset the walk has already ruled out.
    """
    ordered = sorted(cover)
    bit = {v: 1 << i for i, v in enumerate(ordered)}
    vertex_of = {b: v for v, b in bit.items()}
    adj = {bit[v]: sum(bit[w] for w in g.neighbors(v) if w in bit) for v in ordered}
    classes = Counter(sum(bit[w] for w in g.neighbors(x)) for x in g.vertices - cover)
    live = {nb: count for nb, count in classes.items() if nb & (nb - 1)}
    everything = (1 << len(ordered)) - 1
    splits = cuts = 0
    for size in range(len(ordered) + 1):
        for picked in combinations(vertex_of, size):
            splits += 1
            out_mask = everything - sum(picked)
            comps = tree_masks(adj, out_mask)
            if comps is None:
                continue
            most = size
            hits = []
            for nb, count in live.items():
                hit = nb & out_mask
                if hit & (hit - 1):
                    most += count
                    hits.append(hit)
            if not can_win(most) or (not can_win(most - 1) and any(
                all((hit & comp).bit_count() <= 1 for comp in comps) for hit in hits
            )) or not can_win(size + cycle_rank(live, out_mask, comps)):
                cuts += 1
                continue
            cover_in = frozenset(vertex_of[b] for b in picked)
            guess = settle_guess(g, cover_in, cover - cover_in, tally)
            if not can_win(_search_bound(guess)):
                cuts += 1
                continue
            if cover_in and not partial_minimality_ok(g, cover_in):
                tally["wrong_cover_guesses"] += 1
                continue
            tally["viable_cover_guesses"] += 1
            tally["cover_guesses"] += splits
            tally["guesses_cut_by_bound"] += cuts
            splits = cuts = 0
            yield guess
    tally["cover_guesses"] += splits
    tally["guesses_cut_by_bound"] += cuts

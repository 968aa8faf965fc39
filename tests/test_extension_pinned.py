"""`solve_extension` reports pinned by a digest.

The digest covers every bipartition guess of the greedy minimal fvs W at
k = 0..4 on seeded random graphs and on graphs with subdivided edges,
whose degree-two paths make the contraction rule fire.  Any change to an
answer, a certificate, a search counter or the reductions fired shows up
as a different digest.
"""

import hashlib
import random

from mmfvs.extension import solve_extension
from mmfvs.graph import Graph
from mmfvs.verify import greedy_minimal_fvs

from helpers import gnp

# (calls, sha256) of the reports before the search moved to mutable sets
PINNED = (1085, "d7ce6a026cb754c5fb38e387d99ba427dcba6be7175013d1d570762fd033d6b7")


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


def corpus():
    rng = random.Random(2022)
    for seed in range(40):
        yield gnp(rng.randint(5, 9), rng.uniform(0.25, 0.5), seed=seed)
    for seed in range(25):
        yield subdivided(gnp(rng.randint(4, 6), rng.uniform(0.4, 0.7), seed=100 + seed), seed)


def bipartitions(w):
    ordered = sorted(w)
    for mask in range(1 << len(ordered)):
        inside = frozenset(v for i, v in enumerate(ordered) if mask >> i & 1)
        yield inside, w - inside


def test_reports_match_the_pinned_digest():
    digest = hashlib.sha256()
    calls = contractions = 0
    for g in corpus():
        w = greedy_minimal_fvs(g)
        for required, forbidden in bipartitions(w):
            for k in range(5):
                report = solve_extension(g, required, forbidden, k)
                solution = report.solution
                row = (
                    report.outcome,
                    sorted(solution.vertices) if solution else None,
                    sorted(solution.certificate.items()) if solution else None,
                    report.nodes_explored,
                    report.max_depth,
                    sorted(report.extras.items()),
                    sorted(report.reductions_fired.items()),
                )
                digest.update(repr(row).encode())
                calls += 1
                contractions += report.reductions_fired.get("contract_degree_two_pairs", 0)
    assert contractions > 0
    assert (calls, digest.hexdigest()) == PINNED
